#include "scanner.h"

#include <algorithm>
#include <cctype>

#include "lint.h"

namespace pmemolap::lint {
namespace {

std::string Trimmed(const std::string& text) {
  size_t begin = text.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  size_t end = text.find_last_not_of(" \t");
  return text.substr(begin, end - begin + 1);
}

void ParseAllowAnnotations(const std::string& comment, int line,
                           ScannedFile* out) {
  size_t pos = 0;
  while ((pos = comment.find("lint:allow(", pos)) != std::string::npos) {
    // Doc prose *mentioning* the syntax (`// lint:allow(...)` in
    // backticks behind a nested //) is not an annotation: look back
    // past whitespace and comment leaders for the telltale backtick.
    size_t back = pos;
    while (back > 0 && (comment[back - 1] == ' ' || comment[back - 1] == '\t' ||
                        comment[back - 1] == '/')) {
      --back;
    }
    if (back > 0 && comment[back - 1] == '`') {
      pos += 11;
      continue;
    }
    pos += 11;  // strlen("lint:allow(")
    size_t close = comment.find(')', pos);
    if (close == std::string::npos) break;
    std::string rules = comment.substr(pos, close - pos);
    // The justification is the rest of this comment segment, up to the
    // next annotation if several share one comment.
    size_t reason_begin = close + 1;
    if (reason_begin < comment.size() && comment[reason_begin] == ':') {
      ++reason_begin;
    }
    size_t reason_end = comment.find("lint:allow(", reason_begin);
    std::string reason = Trimmed(comment.substr(
        reason_begin, reason_end == std::string::npos
                          ? std::string::npos
                          : reason_end - reason_begin));
    size_t item = 0;
    while (item < rules.size()) {
      size_t comma = rules.find(',', item);
      std::string rule = Trimmed(rules.substr(
          item, comma == std::string::npos ? std::string::npos
                                           : comma - item));
      item = comma == std::string::npos ? rules.size() : comma + 1;
      if (rule.empty()) continue;
      out->allows[static_cast<size_t>(line)].insert(rule);
      out->allow_notes.push_back(AllowNote{line + 1, rule, reason});
    }
    pos = close;
  }
}

}  // namespace

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

size_t FindWord(const std::string& code, const std::string& word,
                size_t from) {
  size_t pos = from;
  while ((pos = code.find(word, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsWordChar(code[pos - 1]);
    size_t end = pos + word.size();
    bool right_ok = end >= code.size() || !IsWordChar(code[end]);
    if (left_ok && right_ok) return pos;
    pos += 1;
  }
  return std::string::npos;
}

bool HasWord(const std::string& code, const std::string& word) {
  return FindWord(code, word) != std::string::npos;
}

bool CallsFunction(const std::string& code, const std::string& word) {
  size_t pos = 0;
  while ((pos = FindWord(code, word, pos)) != std::string::npos) {
    size_t after = pos + word.size();
    while (after < code.size() &&
           std::isspace(static_cast<unsigned char>(code[after]))) {
      ++after;
    }
    if (after < code.size() && code[after] == '(') return true;
    pos += word.size();
  }
  return false;
}

ScannedFile ScanFile(const std::string& content) {
  ScannedFile out;
  // Pre-split into physical lines so annotations can index them.
  size_t num_lines = 1 + static_cast<size_t>(std::count(
                             content.begin(), content.end(), '\n'));
  out.code.assign(num_lines, std::string());
  out.allows.assign(num_lines, {});

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  int line = 0;
  std::string comment_text;   // accumulates the current comment
  std::string raw_delimiter;  // delimiter of the current raw string

  const size_t n = content.size();
  for (size_t i = 0; i < n; ++i) {
    char c = content[i];
    char next = i + 1 < n ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) {
        ParseAllowAnnotations(comment_text, line, &out);
        comment_text.clear();
        state = State::kCode;
      } else if (state == State::kBlockComment) {
        ParseAllowAnnotations(comment_text, line, &out);
        comment_text.clear();
      }
      ++line;
      continue;
    }
    std::string& code_line = out.code[static_cast<size_t>(line)];
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          // Raw string literal: R"delim( ... )delim"
          if (i > 0 && content[i - 1] == 'R' &&
              (i < 2 || !(std::isalnum(static_cast<unsigned char>(
                              content[i - 2])) ||
                          content[i - 2] == '_'))) {
            size_t open = content.find('(', i);
            if (open != std::string::npos) {
              raw_delimiter.assign(1, ')');
              raw_delimiter.append(content, i + 1, open - i - 1);
              raw_delimiter.push_back('"');
              state = State::kRawString;
              code_line += '"';
              i = open;  // skip delimiter; contents blanked from here
              break;
            }
          }
          state = State::kString;
          code_line += '"';
        } else if (c == '\'') {
          state = State::kChar;
          code_line += '\'';
        } else {
          code_line += c;
        }
        break;
      case State::kLineComment:
        comment_text += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          ParseAllowAnnotations(comment_text, line, &out);
          comment_text.clear();
          state = State::kCode;
          ++i;
        } else {
          comment_text += c;
        }
        break;
      case State::kString: {
        // Keep the literal's contents on preprocessor lines so the
        // layering rule can read #include paths; blank it elsewhere.
        size_t hash = code_line.find_first_not_of(" \t");
        bool preprocessor =
            hash != std::string::npos && code_line[hash] == '#';
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          code_line += '"';
          state = State::kCode;
        } else if (preprocessor) {
          code_line += c;
        }
        break;
      }
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          code_line += '\'';
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (content.compare(i, raw_delimiter.size(), raw_delimiter) == 0) {
          i += raw_delimiter.size() - 1;
          code_line += '"';
          state = State::kCode;
        }
        break;
    }
  }
  if (state == State::kLineComment || state == State::kBlockComment) {
    ParseAllowAnnotations(comment_text, line, &out);
  }
  // An annotation on a comment-only (or blank) line covers the next code
  // line, however many comment lines the justification takes; cascading
  // forward merges each such line's allows into its successor.
  for (size_t i = 0; i + 1 < out.code.size(); ++i) {
    if (out.allows[i].empty()) continue;
    if (out.code[i].find_first_not_of(" \t") != std::string::npos) continue;
    out.allows[i + 1].insert(out.allows[i].begin(), out.allows[i].end());
  }
  return out;
}

void EmitDiagnostic(const std::string& path, const ScannedFile& scan,
                    int line_index, const std::string& rule,
                    const std::string& message, Report* report) {
  const auto& allows = scan.allows[static_cast<size_t>(line_index)];
  if (allows.count(rule) || allows.count("*")) {
    ++report->allowed;
    return;
  }
  report->diagnostics.push_back(
      Diagnostic{path, line_index + 1, rule, message});
}

}  // namespace pmemolap::lint
