#ifndef BENCHTEMP_TOOLS_BTLINT_LEXER_H_
#define BENCHTEMP_TOOLS_BTLINT_LEXER_H_

#include <string>
#include <vector>

namespace btlint {

/// A minimal C++ lexer: just enough token structure for the btlint rules.
/// It is NOT a compiler front end — no preprocessing, no type checking —
/// but it does understand comments, string/char literals (including raw
/// strings), numeric literals, multi-char operators, and preprocessor
/// directives, which is what separates a useful project linter from grep.

enum class TokKind {
  kIdent,      // identifiers and keywords
  kNumber,     // numeric literals (int or float, suffixes kept)
  kString,     // string literal (quotes kept)
  kChar,       // character literal
  kPunct,      // operator / punctuation, longest-match
  kDirective,  // a whole preprocessor line, backslash-continued
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;  // 1-based
  int col = 0;   // 1-based
};

struct Comment {
  int line = 0;      // first line of the comment
  int end_line = 0;  // last line (== line for `//` comments)
  bool own_line = false;  // nothing but whitespace precedes it on its line
  std::string text;       // body without the comment markers
};

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<std::string> lines;  // raw source split on '\n'
};

LexedFile Lex(const std::string& source);

}  // namespace btlint

#endif  // BENCHTEMP_TOOLS_BTLINT_LEXER_H_
