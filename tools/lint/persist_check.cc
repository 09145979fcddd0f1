#include "persist_check.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "lint.h"

namespace pmemolap::lint {
namespace {

// ---------------------------------------------------------------------------
// Tokenization over the comment/string-blanked code lines.
// ---------------------------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;  // 0-based
};

bool IsWordToken(const std::string& text) {
  return !text.empty() &&
         (std::isalpha(static_cast<unsigned char>(text[0])) ||
          text[0] == '_');
}

std::vector<Token> Tokenize(const ScannedFile& scan) {
  std::vector<Token> tokens;
  for (size_t line = 0; line < scan.code.size(); ++line) {
    const std::string& code = scan.code[line];
    size_t i = 0;
    while (i < code.size()) {
      char c = code[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (IsWordChar(c)) {
        size_t begin = i;
        while (i < code.size() && IsWordChar(code[i])) ++i;
        tokens.push_back(
            Token{code.substr(begin, i - begin), static_cast<int>(line)});
        continue;
      }
      // Two-character tokens the pass cares about; everything else is
      // one punctuation character per token.
      if (c == '-' && i + 1 < code.size() && code[i + 1] == '>') {
        tokens.push_back(Token{"->", static_cast<int>(line)});
        i += 2;
        continue;
      }
      if (c == ':' && i + 1 < code.size() && code[i + 1] == ':') {
        tokens.push_back(Token{"::", static_cast<int>(line)});
        i += 2;
        continue;
      }
      tokens.push_back(Token{std::string(1, c), static_cast<int>(line)});
      ++i;
    }
  }
  return tokens;
}

/// Index of the token matching the opener at `open` ('(' / '{' / '['),
/// or `tokens.size()` when unbalanced.
size_t MatchDelim(const std::vector<Token>& tokens, size_t open) {
  const std::string& opener = tokens[open].text;
  std::string closer = opener == "(" ? ")" : opener == "{" ? "}" : "]";
  int depth = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].text == opener) ++depth;
    if (tokens[i].text == closer && --depth == 0) return i;
  }
  return tokens.size();
}

// ---------------------------------------------------------------------------
// Events: the persistence-relevant operations a statement performs.
// ---------------------------------------------------------------------------

struct Event {
  enum Kind { kStore, kNtStore, kFlush, kFence, kTruncate, kPublish };
  Kind kind = kStore;
  std::string recv;  ///< receiver expression ("<expr>" for chains)
  std::string key;   ///< normalized first-argument (offset) text
  std::string name;  ///< called identifier, for diagnostics
  bool commit = false;  ///< argument text names a commit marker
  int line = 0;
};

std::optional<Event::Kind> PrimitiveKind(const std::string& word) {
  if (word == "Store") return Event::kStore;
  if (word == "NtStore") return Event::kNtStore;
  if (word == "FlushRange") return Event::kFlush;
  if (word == "Fence") return Event::kFence;
  if (word == "TruncateTo") return Event::kTruncate;
  return std::nullopt;
}

bool IsPublishName(const std::string& word) {
  // AdvanceCommitted / RestoreCommitted are the durable table's volatile
  // publishes; OnPublish is the runtime oracle's publish declaration —
  // writing it marks the same protocol point for both layers.
  return word == "AdvanceCommitted" || word == "RestoreCommitted" ||
         word == "OnPublish";
}

std::string JoinTokens(const std::vector<Token>& tokens, size_t begin,
                       size_t end) {
  std::string out;
  for (size_t i = begin; i < end && i < tokens.size(); ++i) {
    out += tokens[i].text;
  }
  return out;
}

std::string Lowered(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return text;
}

/// Collects events from the token span [begin, end).
void ExtractEvents(const std::vector<Token>& tokens, size_t begin,
                   size_t end, std::vector<Event>* out) {
  for (size_t i = begin; i < end; ++i) {
    const std::string& word = tokens[i].text;
    if (!IsWordToken(word)) continue;
    if (i + 1 >= end || tokens[i + 1].text != "(") continue;
    size_t close = MatchDelim(tokens, i + 1);
    if (close >= tokens.size()) continue;

    std::optional<Event::Kind> primitive = PrimitiveKind(word);
    if (primitive.has_value()) {
      // Primitives count only as member calls (`recv.Store(` /
      // `recv->Store(`): definitions and unrelated free functions with
      // the same name never look like that inside a body.
      if (i < begin + 2) continue;
      const std::string& access = tokens[i - 1].text;
      if (access != "." && access != "->") continue;
      Event event;
      event.kind = *primitive;
      event.name = word;
      event.recv = IsWordToken(tokens[i - 2].text) ? tokens[i - 2].text
                                                   : "<expr>";
      // First argument (the offset expression) names the range.
      size_t arg_end = i + 2;
      int depth = 0;
      while (arg_end < close) {
        const std::string& t = tokens[arg_end].text;
        if (t == "(" || t == "{" || t == "[") ++depth;
        if (t == ")" || t == "}" || t == "]") --depth;
        if (t == "," && depth == 0) break;
        ++arg_end;
      }
      event.key = JoinTokens(tokens, i + 2, arg_end);
      event.commit =
          Lowered(JoinTokens(tokens, i + 2, close)).find("commit") !=
          std::string::npos;
      event.line = tokens[i].line;
      out->push_back(std::move(event));
      continue;
    }
    if (IsPublishName(word)) {
      if (i > begin && tokens[i - 1].text == "::") continue;  // qualified
      Event event;
      event.kind = Event::kPublish;
      event.name = word;
      event.line = tokens[i].line;
      out->push_back(std::move(event));
    }
  }
}

// ---------------------------------------------------------------------------
// Statement structure (the pass's lightweight CFG).
// ---------------------------------------------------------------------------

struct Stmt {
  enum Kind {
    kSeq,       ///< `{ ... }` — body in `a`
    kIf,        ///< condition events, then `a`, else `b`
    kLoop,      ///< condition events, body `a`; zero or more iterations
    kReturn,    ///< events, then a checked exit
    kExpr,      ///< events only
    kMacroExit, ///< events, then a *conditional unchecked* error exit
    kBreak,
    kContinue,
  };
  Kind kind = kExpr;
  std::vector<Event> events;
  std::vector<Stmt> a;
  std::vector<Stmt> b;
  int line = 0;
};

class Parser {
 public:
  Parser(const std::vector<Token>& tokens, size_t begin, size_t end)
      : tokens_(tokens), pos_(begin), end_(end) {}

  std::vector<Stmt> ParseBody() { return ParseUntilClose(end_); }

 private:
  const std::string& Text(size_t i) const { return tokens_[i].text; }

  std::vector<Stmt> ParseUntilClose(size_t end) {
    std::vector<Stmt> stmts;
    while (pos_ < end) {
      if (Text(pos_) == "}") break;
      // `case X:` / `default:` labels are transparent: switch bodies are
      // analyzed as straight-line code (conservative for this lattice).
      if (Text(pos_) == "case") {
        while (pos_ < end && Text(pos_) != ":") ++pos_;
        if (pos_ < end) ++pos_;
        continue;
      }
      if (Text(pos_) == "default" && pos_ + 1 < end &&
          Text(pos_ + 1) == ":") {
        pos_ += 2;
        continue;
      }
      stmts.push_back(ParseStmt());
    }
    return stmts;
  }

  /// Events of the parenthesized span starting at `pos_` (which must be
  /// '('); advances past the closing paren and returns [open, close].
  std::pair<size_t, size_t> ParenSpan() {
    size_t open = pos_;
    size_t close = MatchDelim(tokens_, open);
    pos_ = std::min(close + 1, end_);
    return {open, close};
  }

  Stmt ParseStmt() {
    Stmt stmt;
    stmt.line = tokens_[pos_].line;
    const std::string& head = Text(pos_);

    if (head == "{") {
      size_t close = MatchDelim(tokens_, pos_);
      ++pos_;
      stmt.kind = Stmt::kSeq;
      stmt.a = ParseUntilClose(close);
      pos_ = std::min(close + 1, end_);
      return stmt;
    }
    if (head == "if") {
      ++pos_;
      if (pos_ < end_ && Text(pos_) == "constexpr") ++pos_;
      if (pos_ < end_ && Text(pos_) == "(") {
        auto [open, close] = ParenSpan();
        ExtractEvents(tokens_, open + 1, close, &stmt.events);
      }
      stmt.kind = Stmt::kIf;
      if (pos_ < end_) stmt.a.push_back(ParseStmt());
      if (pos_ < end_ && Text(pos_) == "else") {
        ++pos_;
        if (pos_ < end_) stmt.b.push_back(ParseStmt());
      }
      return stmt;
    }
    if (head == "while") {
      ++pos_;
      if (pos_ < end_ && Text(pos_) == "(") {
        auto [open, close] = ParenSpan();
        ExtractEvents(tokens_, open + 1, close, &stmt.events);
      }
      stmt.kind = Stmt::kLoop;
      if (pos_ < end_) stmt.a.push_back(ParseStmt());
      return stmt;
    }
    if (head == "for") {
      ++pos_;
      std::vector<Event> init_events;
      std::vector<Event> iter_events;
      if (pos_ < end_ && Text(pos_) == "(") {
        size_t open = pos_;
        size_t close = MatchDelim(tokens_, open);
        // Split at top-level ';' — absent in a range-for, whose header
        // is all evaluated once but harmlessly modeled as a condition.
        std::vector<size_t> semis;
        int depth = 0;
        for (size_t i = open + 1; i < close; ++i) {
          const std::string& t = Text(i);
          if (t == "(" || t == "{" || t == "[") ++depth;
          if (t == ")" || t == "}" || t == "]") --depth;
          if (t == ";" && depth == 0) semis.push_back(i);
        }
        if (semis.size() == 2) {
          ExtractEvents(tokens_, open + 1, semis[0], &init_events);
          ExtractEvents(tokens_, semis[0] + 1, semis[1], &stmt.events);
          ExtractEvents(tokens_, semis[1] + 1, close, &iter_events);
        } else {
          ExtractEvents(tokens_, open + 1, close, &stmt.events);
        }
        pos_ = std::min(close + 1, end_);
      }
      stmt.kind = Stmt::kLoop;
      if (pos_ < end_) stmt.a.push_back(ParseStmt());
      if (!iter_events.empty()) {
        Stmt inc;
        inc.kind = Stmt::kExpr;
        inc.line = stmt.line;
        inc.events = std::move(iter_events);
        stmt.a.push_back(std::move(inc));
      }
      if (init_events.empty()) return stmt;
      Stmt seq;
      seq.kind = Stmt::kSeq;
      seq.line = stmt.line;
      Stmt init;
      init.kind = Stmt::kExpr;
      init.line = stmt.line;
      init.events = std::move(init_events);
      seq.a.push_back(std::move(init));
      seq.a.push_back(std::move(stmt));
      return seq;
    }
    if (head == "do") {
      ++pos_;
      Stmt body = pos_ < end_ ? ParseStmt() : Stmt{};
      std::vector<Event> cond;
      if (pos_ < end_ && Text(pos_) == "while") {
        ++pos_;
        if (pos_ < end_ && Text(pos_) == "(") {
          auto [open, close] = ParenSpan();
          ExtractEvents(tokens_, open + 1, close, &cond);
        }
        if (pos_ < end_ && Text(pos_) == ";") ++pos_;
      }
      // do { B } while (c)  ==  B; loop(c) { B } — the copy gives the
      // body its guaranteed first iteration.
      Stmt seq;
      seq.kind = Stmt::kSeq;
      seq.line = stmt.line;
      seq.a.push_back(body);
      Stmt loop;
      loop.kind = Stmt::kLoop;
      loop.line = stmt.line;
      loop.events = std::move(cond);
      loop.a.push_back(std::move(body));
      seq.a.push_back(std::move(loop));
      return seq;
    }
    if (head == "switch") {
      ++pos_;
      if (pos_ < end_ && Text(pos_) == "(") {
        auto [open, close] = ParenSpan();
        ExtractEvents(tokens_, open + 1, close, &stmt.events);
      }
      stmt.kind = Stmt::kSeq;
      if (pos_ < end_ && Text(pos_) == "{") {
        size_t close = MatchDelim(tokens_, pos_);
        ++pos_;
        stmt.a = ParseUntilClose(close);
        pos_ = std::min(close + 1, end_);
      }
      return stmt;
    }
    if (head == "return") {
      ++pos_;
      size_t begin = pos_;
      SkipToSemicolon();
      ExtractEvents(tokens_, begin, pos_, &stmt.events);
      if (pos_ < end_) ++pos_;  // ';'
      stmt.kind = Stmt::kReturn;
      return stmt;
    }
    if (head == "break" || head == "continue") {
      stmt.kind = head == "break" ? Stmt::kBreak : Stmt::kContinue;
      ++pos_;
      if (pos_ < end_ && Text(pos_) == ";") ++pos_;
      return stmt;
    }
    if (head == "PMEMOLAP_RETURN_NOT_OK" ||
        head == "PMEMOLAP_ASSIGN_OR_RETURN") {
      // The macro evaluates its expression, then returns *on error* —
      // an exit the protocol check skips: a failed primitive aborts the
      // epoch, and crash/recovery semantics own that path.
      ++pos_;
      if (pos_ < end_ && Text(pos_) == "(") {
        auto [open, close] = ParenSpan();
        ExtractEvents(tokens_, open + 1, close, &stmt.events);
      }
      if (pos_ < end_ && Text(pos_) == ";") ++pos_;
      stmt.kind = Stmt::kMacroExit;
      return stmt;
    }
    // Expression / declaration statement: consume one balanced span up
    // to its ';'.
    size_t begin = pos_;
    SkipToSemicolon();
    ExtractEvents(tokens_, begin, pos_, &stmt.events);
    if (pos_ < end_) ++pos_;  // ';'
    if (pos_ == begin) ++pos_;  // guarantee progress on malformed input
    stmt.kind = Stmt::kExpr;
    return stmt;
  }

  void SkipToSemicolon() {
    int depth = 0;
    while (pos_ < end_) {
      const std::string& t = Text(pos_);
      if (t == "(" || t == "{" || t == "[") ++depth;
      if (t == ")" || t == "}" || t == "]") {
        if (depth == 0) break;  // stray closer: statement ends here
        --depth;
      }
      if (t == ";" && depth == 0) break;
      ++pos_;
    }
  }

  const std::vector<Token>& tokens_;
  size_t pos_;
  size_t end_;
};

// ---------------------------------------------------------------------------
// The per-store lattice and its abstract interpretation.
// ---------------------------------------------------------------------------

/// May-state of one (receiver, offset-expression) range between the
/// protocol's stages. Origin lines feed diagnostics.
struct KeyState {
  bool dirty = false;     ///< stored, not yet flushed (modeled cache)
  bool accepted = false;  ///< flushed / nt-stored, not yet fenced (WPQ)
  bool nt = false;        ///< pending write used NtStore
  bool cached = false;    ///< pending write used cached Store
  std::set<int> store_lines;
  std::set<int> flush_lines;

  bool operator==(const KeyState&) const = default;
  bool pending() const { return dirty || accepted; }
};

using RecvState = std::map<std::string, KeyState>;

struct AbsState {
  std::map<std::string, RecvState> recvs;
  bool operator==(const AbsState&) const = default;
};

void JoinInto(AbsState* into, const AbsState& from) {
  for (const auto& [recv, keys] : from.recvs) {
    RecvState& mine = into->recvs[recv];
    for (const auto& [key, state] : keys) {
      KeyState& k = mine[key];
      k.dirty |= state.dirty;
      k.accepted |= state.accepted;
      k.nt |= state.nt;
      k.cached |= state.cached;
      k.store_lines.insert(state.store_lines.begin(),
                           state.store_lines.end());
      k.flush_lines.insert(state.flush_lines.begin(),
                           state.flush_lines.end());
    }
  }
}

std::string LineList(const std::set<int>& lines) {
  std::string out;
  int shown = 0;
  for (int line : lines) {
    if (shown++ == 3) {
      out += ", ...";
      break;
    }
    if (!out.empty()) out += ", ";
    out += std::to_string(line + 1);
  }
  return out;
}

std::string RangeName(const std::string& recv, const std::string& key) {
  return "'" + recv + (key.empty() ? "" : " @ " + key) + "'";
}

/// Deduplicating diagnostic sink (fixpoint iteration re-applies events).
class Sink {
 public:
  Sink(const std::string& path, const ScannedFile& scan, Report* report)
      : path_(path), scan_(scan), report_(report) {}

  void Emit(int line, const std::string& rule, const std::string& message) {
    if (!seen_.insert(rule + "#" + std::to_string(line) + "#" + message)
             .second) {
      return;
    }
    EmitDiagnostic(path_, scan_, line, rule, message, report_);
  }

 private:
  const std::string& path_;
  const ScannedFile& scan_;
  Report* report_;
  std::set<std::string> seen_;
};

class Interpreter {
 public:
  explicit Interpreter(Sink* sink) : sink_(sink) {}

  void Run(const std::vector<Stmt>& body, int end_line) {
    AbsState entry;
    std::optional<AbsState> out = EvalSeq(body, entry, nullptr, nullptr);
    if (out.has_value()) CheckExit(*out, end_line);
  }

 private:
  /// Evaluates a statement list from `state`. Returns the fallthrough
  /// state, or nullopt when every path returned/broke. Break/continue
  /// states join into the provided accumulators.
  std::optional<AbsState> EvalSeq(const std::vector<Stmt>& stmts,
                                  AbsState state,
                                  std::vector<AbsState>* breaks,
                                  std::vector<AbsState>* continues) {
    std::optional<AbsState> current = std::move(state);
    for (const Stmt& stmt : stmts) {
      if (!current.has_value()) break;  // unreachable on every path
      current = EvalStmt(stmt, std::move(*current), breaks, continues);
    }
    return current;
  }

  std::optional<AbsState> EvalStmt(const Stmt& stmt, AbsState state,
                                   std::vector<AbsState>* breaks,
                                   std::vector<AbsState>* continues) {
    switch (stmt.kind) {
      case Stmt::kExpr:
      case Stmt::kMacroExit:
        // A macro's error return exits with state pending on purpose —
        // the epoch failed; recovery truncates it. Not a checked exit.
        for (const Event& event : stmt.events) Apply(event, &state);
        return state;
      case Stmt::kSeq: {
        for (const Event& event : stmt.events) Apply(event, &state);
        return EvalSeq(stmt.a, std::move(state), breaks, continues);
      }
      case Stmt::kIf: {
        for (const Event& event : stmt.events) Apply(event, &state);
        std::optional<AbsState> then_out =
            EvalSeq(stmt.a, state, breaks, continues);
        std::optional<AbsState> else_out =
            stmt.b.empty()
                ? std::optional<AbsState>(state)
                : EvalSeq(stmt.b, state, breaks, continues);
        if (!then_out.has_value()) return else_out;
        if (!else_out.has_value()) return then_out;
        JoinInto(&*then_out, *else_out);
        return then_out;
      }
      case Stmt::kLoop:
        return EvalLoop(stmt, std::move(state));
      case Stmt::kReturn: {
        for (const Event& event : stmt.events) Apply(event, &state);
        CheckExit(state, stmt.line);
        return std::nullopt;
      }
      case Stmt::kBreak:
        if (breaks != nullptr) breaks->push_back(std::move(state));
        return std::nullopt;
      case Stmt::kContinue:
        if (continues != nullptr) continues->push_back(std::move(state));
        return std::nullopt;
    }
    return state;
  }

  std::optional<AbsState> EvalLoop(const Stmt& stmt, AbsState entry) {
    // Fixpoint over the back edge: the loop head accumulates every
    // iteration's fallthrough and continue states. The lattice only
    // grows under join, so this terminates; the bound is a backstop.
    AbsState head = entry;
    std::vector<AbsState> breaks_seen;
    AbsState after_cond = head;
    for (int iteration = 0; iteration < 16; ++iteration) {
      after_cond = head;
      for (const Event& event : stmt.events) Apply(event, &after_cond);
      std::vector<AbsState> breaks;
      std::vector<AbsState> continues;
      std::optional<AbsState> body_out =
          EvalSeq(stmt.a, after_cond, &breaks, &continues);
      for (AbsState& b : breaks) breaks_seen.push_back(std::move(b));
      AbsState next_head = head;
      if (body_out.has_value()) JoinInto(&next_head, *body_out);
      for (const AbsState& c : continues) JoinInto(&next_head, c);
      if (next_head == head) break;
      head = std::move(next_head);
    }
    // Exit = the condition turning false at the (fixpointed) head,
    // joined with every break.
    AbsState exit = std::move(after_cond);
    for (const AbsState& b : breaks_seen) JoinInto(&exit, b);
    return exit;
  }

  void Apply(const Event& event, AbsState* state) {
    switch (event.kind) {
      case Event::kStore: {
        if (event.commit) CheckCommitMarker(event, *state);
        KeyState& k = state->recvs[event.recv][event.key];
        if (k.pending() && k.nt) {
          sink_->Emit(
              event.line, "persist-mixed-store",
              "cached Store to range " + RangeName(event.recv, event.key) +
                  " while an NtStore to the same range (line " +
                  LineList(k.store_lines) +
                  ") is still un-fenced; mixing cached and non-temporal "
                  "writes to a line without an intervening Fence() lets "
                  "the WC buffer reorder them");
        }
        k.dirty = true;
        k.accepted = false;
        k.cached = true;
        k.nt = false;
        k.store_lines.insert(event.line);
        k.flush_lines.clear();
        break;
      }
      case Event::kNtStore: {
        if (event.commit) CheckCommitMarker(event, *state);
        KeyState& k = state->recvs[event.recv][event.key];
        if (k.dirty && k.cached) {
          sink_->Emit(
              event.line, "persist-mixed-store",
              "NtStore to range " + RangeName(event.recv, event.key) +
                  " while a cached Store to the same range (line " +
                  LineList(k.store_lines) +
                  ") is still dirty; flush and Fence() the cached write "
                  "first or the line's two versions race to the DIMM");
        }
        k.dirty = false;
        k.accepted = true;
        k.nt = true;
        k.cached = false;
        k.store_lines.insert(event.line);
        k.flush_lines = {event.line};
        break;
      }
      case Event::kFlush: {
        RecvState& recv = state->recvs[event.recv];
        auto it = recv.find(event.key);
        if (it != recv.end() && it->second.pending()) {
          KeyState& k = it->second;
          if (k.accepted && !k.dirty) {
            sink_->Emit(
                event.line, "persist-double-flush",
                "redundant FlushRange of range " +
                    RangeName(event.recv, event.key) +
                    ": already flushed (line " + LineList(k.flush_lines) +
                    ") and not re-dirtied since — pure clwb issue cost");
          }
          if (k.dirty) {
            k.dirty = false;
            k.accepted = true;
            k.flush_lines.insert(event.line);
          }
        } else {
          // No textual match: treat as a covering flush of everything
          // the receiver still has dirty (a wider-range clwb sweep).
          for (auto& [key, k] : recv) {
            if (!k.dirty) continue;
            k.dirty = false;
            k.accepted = true;
            k.flush_lines.insert(event.line);
          }
        }
        break;
      }
      case Event::kFence: {
        RecvState& recv = state->recvs[event.recv];
        for (auto it = recv.begin(); it != recv.end();) {
          KeyState& k = it->second;
          k.accepted = false;
          k.flush_lines.clear();
          if (!k.dirty) {
            it = recv.erase(it);  // fully persisted
          } else {
            ++it;  // sfence drains the WPQ; dirty cache lines stay dirty
          }
        }
        break;
      }
      case Event::kTruncate:
        // TruncateTo is internally store+flush+fence on its own tail
        // pointer; it neither drains nor flushes the caller's pending
        // ranges (the model keeps their line states), so: no-op.
        break;
      case Event::kPublish: {
        for (const auto& [recv, keys] : state->recvs) {
          for (const auto& [key, k] : keys) {
            if (k.dirty) {
              sink_->Emit(
                  event.line, "persist-order",
                  event.name + "() publishes while range " +
                      RangeName(recv, key) + " stored at line " +
                      LineList(k.store_lines) +
                      " is still dirty in the modeled cache — a crash "
                      "here exposes bytes no FlushRange/Fence made "
                      "durable; complete the store -> flush -> fence "
                      "ladder before publishing");
            } else if (k.accepted) {
              sink_->Emit(
                  event.line, "persist-order",
                  event.name + "() publishes while range " +
                      RangeName(recv, key) + " flushed at line " +
                      LineList(k.flush_lines) +
                      " has not reached a Fence() — the WPQ drain is "
                      "not ordered before the publish");
            }
          }
        }
        break;
      }
    }
  }

  void CheckCommitMarker(const Event& event, const AbsState& state) {
    // The payload need not share the marker's receiver (the table holds
    // it, the log the marker), so every receiver's ranges must be fenced.
    for (const auto& [recv, keys] : state.recvs) {
      for (const auto& [key, k] : keys) {
        if (!k.pending()) continue;
        sink_->Emit(
            event.line, "persist-order",
            "commit marker written to '" + event.recv + "' while range " +
                RangeName(recv, key) + " (line " + LineList(k.store_lines) +
                ") is still un-fenced — the marker must be ordered after "
                "the payload by a dominating Fence(), or recovery can see "
                "a committed epoch with torn payload bytes");
        return;  // one diagnostic per marker is enough
      }
    }
  }

  void CheckExit(const AbsState& state, int line) {
    for (const auto& [recv, keys] : state.recvs) {
      for (const auto& [key, k] : keys) {
        if (!k.accepted || k.dirty) continue;
        sink_->Emit(
            line, "persist-order",
            "flush of range " + RangeName(recv, key) + " (line " +
                LineList(k.flush_lines) +
                ") never reaches a Fence() before this exit — the "
                "write-back sits in the WPQ with nothing ordering its "
                "drain");
      }
    }
  }

  Sink* sink_;
};

/// True when [begin, end) mentions any name the pass reacts to — a fast
/// pre-filter so only persistence-touching functions get parsed.
bool SpanHasPersistNames(const std::vector<Token>& tokens, size_t begin,
                         size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const std::string& t = tokens[i].text;
    if (PrimitiveKind(t).has_value() || IsPublishName(t)) return true;
  }
  return false;
}

}  // namespace

void CheckPersistOrder(const std::string& path, const ScannedFile& scan,
                       Report* report) {
  // Only production src/ code carries the protocol; tests violate it on
  // purpose (crash staging, torn-write setup) and are covered by the
  // runtime PersistOrderChecker instead.
  if (path.rfind("src/", 0) != 0) return;

  std::vector<Token> tokens = Tokenize(scan);
  Sink sink(path, scan, report);

  size_t i = 0;
  while (i < tokens.size()) {
    if (tokens[i].text != "{") {
      ++i;
      continue;
    }
    // A function body's `{` follows its parameter list's `)` (possibly
    // through trailing qualifiers); class/namespace/initializer braces
    // never do.
    size_t j = i;
    while (j > 0) {
      const std::string& prev = tokens[j - 1].text;
      if (prev == "const" || prev == "noexcept" || prev == "override" ||
          prev == "final" || prev == "mutable") {
        --j;
        continue;
      }
      break;
    }
    if (j == 0 || tokens[j - 1].text != ")") {
      ++i;  // descend: member functions inside class braces still match
      continue;
    }
    size_t close = MatchDelim(tokens, i);
    if (close >= tokens.size()) break;
    if (SpanHasPersistNames(tokens, i + 1, close)) {
      Parser parser(tokens, i + 1, close);
      std::vector<Stmt> body = parser.ParseBody();
      Interpreter interpreter(&sink);
      interpreter.Run(body, tokens[close].line);
    }
    i = close + 1;
  }
}

}  // namespace pmemolap::lint
