#include "lexer.h"

#include <array>
#include <cctype>

namespace btlint {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Multi-character operators, longest first within each first-char group.
const std::array<const char*, 22> kMultiPunct = {
    "<<=", ">>=", "<=>", "...", "->*", "::", "->", "==", "!=", "<=", ">=",
    "+=",  "-=",  "*=",  "/=",  "%=",  "&=", "|=", "^=", "&&", "||", "++",
};

}  // namespace

LexedFile Lex(const std::string& source) {
  LexedFile out;

  // Split raw lines (for suppression scanning and messages).
  {
    std::string line;
    for (char c : source) {
      if (c == '\n') {
        out.lines.push_back(line);
        line.clear();
      } else {
        line += c;
      }
    }
    out.lines.push_back(line);
  }

  const size_t n = source.size();
  size_t i = 0;
  int line = 1, col = 1;
  bool line_has_token = false;  // anything non-ws before current position

  auto advance = [&](size_t count) {
    for (size_t k = 0; k < count && i < n; ++k, ++i) {
      if (source[i] == '\n') {
        ++line;
        col = 1;
        line_has_token = false;
      } else {
        ++col;
      }
    }
  };

  while (i < n) {
    const char c = source[i];
    const int tok_line = line, tok_col = col;

    // Whitespace.
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }

    // Line comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      Comment cm;
      cm.line = cm.end_line = line;
      cm.own_line = !line_has_token;
      size_t j = i + 2;
      while (j < n && source[j] != '\n') ++j;
      cm.text = source.substr(i + 2, j - (i + 2));
      out.comments.push_back(cm);
      advance(j - i);
      continue;
    }

    // Block comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      Comment cm;
      cm.line = line;
      cm.own_line = !line_has_token;
      size_t j = i + 2;
      while (j + 1 < n && !(source[j] == '*' && source[j + 1] == '/')) ++j;
      cm.text = source.substr(i + 2, j - (i + 2));
      const size_t len = (j + 1 < n) ? j + 2 - i : n - i;
      advance(len);
      cm.end_line = line;
      out.comments.push_back(cm);
      continue;
    }

    const bool first_on_line = !line_has_token;
    line_has_token = true;

    // Preprocessor directive: swallow the whole (backslash-continued) line.
    if (c == '#' && first_on_line) {
      size_t j = i;
      std::string text;
      while (j < n) {
        if (source[j] == '\n') {
          if (!text.empty() && text.back() == '\\') {
            text.back() = ' ';
            ++j;
            continue;
          }
          break;
        }
        text += source[j];
        ++j;
      }
      out.tokens.push_back({TokKind::kDirective, text, tok_line, tok_col});
      advance(j - i);
      continue;
    }

    // Raw string literal.
    if (c == 'R' && i + 1 < n && source[i + 1] == '"') {
      size_t j = i + 2;
      std::string delim;
      while (j < n && source[j] != '(') delim += source[j++];
      const std::string closer = ")" + delim + "\"";
      size_t end = source.find(closer, j);
      if (end == std::string::npos) end = n;
      const size_t len = end == n ? n - i : end + closer.size() - i;
      out.tokens.push_back({TokKind::kString, source.substr(i, len), tok_line,
                            tok_col});
      advance(len);
      continue;
    }

    // String / char literal.
    if (c == '"' || c == '\'') {
      // Digit separators ('): a quote directly between alnums inside a
      // number is handled by the number scanner, so a bare ' here is a
      // char literal.
      size_t j = i + 1;
      while (j < n && source[j] != c) {
        if (source[j] == '\\') ++j;
        ++j;
      }
      const size_t len = (j < n ? j + 1 : n) - i;
      out.tokens.push_back({c == '"' ? TokKind::kString : TokKind::kChar,
                            source.substr(i, len), tok_line, tok_col});
      advance(len);
      continue;
    }

    // Number.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
      size_t j = i;
      bool prev_exp = false;
      while (j < n) {
        const char d = source[j];
        if (std::isalnum(static_cast<unsigned char>(d)) || d == '.' ||
            d == '\'') {
          prev_exp = (d == 'e' || d == 'E' || d == 'p' || d == 'P');
          ++j;
        } else if ((d == '+' || d == '-') && prev_exp) {
          prev_exp = false;
          ++j;
        } else {
          break;
        }
      }
      out.tokens.push_back(
          {TokKind::kNumber, source.substr(i, j - i), tok_line, tok_col});
      advance(j - i);
      continue;
    }

    // Identifier / keyword.
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(source[j])) ++j;
      out.tokens.push_back(
          {TokKind::kIdent, source.substr(i, j - i), tok_line, tok_col});
      advance(j - i);
      continue;
    }

    // Punctuation, longest match.
    std::string best(1, c);
    for (const char* op : kMultiPunct) {
      const size_t len = std::string(op).size();
      if (len > best.size() && i + len <= n &&
          source.compare(i, len, op) == 0) {
        best = op;
      }
    }
    out.tokens.push_back({TokKind::kPunct, best, tok_line, tok_col});
    advance(best.size());
  }

  return out;
}

}  // namespace btlint
