#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "persist_check.h"
#include "scanner.h"

namespace pmemolap::lint {
namespace {

// ---------------------------------------------------------------------------
// The declared layer DAG.
//
//   common <- topo <- device <- memsys <- sim <- core/fault
//          <- governor/durability/tiering <- exec/engine/ssb/dash/qos
//          <- service
//
// A layer may include itself and any layer of strictly lower rank. Layers
// sharing a rank are independent unless an explicit intra-tier edge is
// declared below (the edge set must stay acyclic by inspection):
// engine -> {exec, ssb, dash, qos} and fault -> core. The governor tier
// sits between the model layers it reads (memsys, core) and the
// executors it actuates (exec, engine): it may read the model, never the
// engine — the engine pulls decisions, the governor never pushes. The
// durability tier shares the governor's rank: it builds on the core and
// model layers (PMEM placement, persist pricing) and is pulled by the
// engine above; durability and governor never include each other — the
// governor sees ingest only as TrafficRecords the engine forwards. The
// encoding tier (compressed column formats) shares sim's rank: pure data
// transformation over the model layers below, pulled by ssb/engine above
// — it must never see the executors, the scheduler, or the simulator.
// The tiering tier (the extent-granular DRAM/PMEM/SSD placement loop)
// shares the governor's rank and the same pull discipline: it reads the
// device and model layers (SSD rates, tier bandwidths) and the core
// placement structures, and the engine pushes touches and pulls
// snapshots from above. Tiering and the governor never include each
// other — the governor sees migrations only as the background
// TrafficRecords the engine forwards — and tiering must never include
// the executors or the engine.
// The service tier (always-on query serving: workload generation, chaos
// scheduling, graceful degradation, the discrete-event campaign loop)
// sits above everything — it composes the engine, governor, qos and
// fault/durability machinery — and nothing may include it: the service
// is a consumer of the stack, never a dependency. Despite sitting above
// the executors it is a *deterministic* layer: campaigns run on modeled
// time (no clocks, no entropy, no threads of its own), which is what
// makes chaos schedules and SLO scorecards replayable.
// ---------------------------------------------------------------------------

const std::map<std::string, int>& LayerRanks() {
  static const std::map<std::string, int> kRanks = {
      {"common", 0},   {"topo", 1},       {"device", 2}, {"memsys", 3},
      {"sim", 4},      {"encoding", 4},   {"core", 5},   {"fault", 5},
      {"governor", 6}, {"durability", 6}, {"tiering", 6}, {"exec", 7},
      {"engine", 7},   {"ssb", 7},        {"dash", 7},    {"qos", 7},
      {"service", 8},
  };
  return kRanks;
}

/// Audited same-rank dependencies (from -> to).
const std::set<std::pair<std::string, std::string>>& IntraTierEdges() {
  static const std::set<std::pair<std::string, std::string>> kEdges = {
      {"fault", "core"},
      {"engine", "exec"},
      {"engine", "ssb"},
      {"engine", "dash"},
      {"engine", "qos"},
  };
  return kEdges;
}

/// Layers whose code must be deterministic: everything that produces or
/// feeds modeled numbers. Only `exec` (host scheduling), `engine`
/// (wall-clock timing lives in engine/timer) and `qos` (wall-clock
/// deadlines are a host-time concept by definition) may touch host time.
const std::set<std::string>& DeterministicLayers() {
  static const std::set<std::string> kLayers = {
      "common", "topo",  "device", "memsys",   "sim",
      "core",   "fault", "ssb",    "governor", "dash",
      "durability", "encoding", "service", "tiering",
  };
  return kLayers;
}

// Lexical scanning and token matchers live in scanner.{h,cc}, shared
// with the flow-sensitive persist-ordering pass (persist_check.cc).

std::string PathLayer(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return "";
  size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  std::string layer = path.substr(4, slash - 4);
  return LayerRanks().count(layer) ? layer : "";
}

bool IsHeader(const std::string& path) {
  return path.size() >= 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

// ---------------------------------------------------------------------------
// Rule context and emission.
// ---------------------------------------------------------------------------

struct FileContext {
  std::string path;    // repo-relative
  std::string layer;   // "" when not under a known src/<layer>/
  bool in_tests = false;
  const ScannedFile* scan = nullptr;
  Report* report = nullptr;
};

void Emit(const FileContext& ctx, int line_index, const std::string& rule,
          const std::string& message) {
  EmitDiagnostic(ctx.path, *ctx.scan, line_index, rule, message,
                 ctx.report);
}

// --- Rule: layering --------------------------------------------------------

void CheckLayering(const FileContext& ctx) {
  if (ctx.layer.empty()) return;  // only src/<layer>/ files are ranked
  const auto& ranks = LayerRanks();
  int own_rank = ranks.at(ctx.layer);
  for (size_t i = 0; i < ctx.scan->code.size(); ++i) {
    const std::string& code = ctx.scan->code[i];
    size_t inc = code.find("#include \"");
    if (inc == std::string::npos) continue;
    size_t start = inc + 10;
    size_t slash = code.find('/', start);
    size_t quote = code.find('"', start);
    if (slash == std::string::npos || quote == std::string::npos ||
        slash > quote) {
      continue;  // includes like "lint.h" carry no layer
    }
    std::string dep = code.substr(start, slash - start);
    auto it = ranks.find(dep);
    if (it == ranks.end()) continue;
    if (dep == ctx.layer) continue;
    bool ok = it->second < own_rank ||
              (it->second == own_rank &&
               IntraTierEdges().count({ctx.layer, dep}) > 0);
    if (!ok) {
      Emit(ctx, static_cast<int>(i), "layering",
           "layer '" + ctx.layer + "' must not include layer '" + dep +
               "' (declared DAG: common <- topo <- device <- memsys <- "
               "sim/encoding <- core/fault <- governor/durability/tiering "
               "<- exec/engine/ssb/dash <- service)");
    }
  }
}

// --- Rule: determinism -----------------------------------------------------

void CheckDeterminism(const FileContext& ctx) {
  if (ctx.in_tests || ctx.layer.empty()) return;
  if (!DeterministicLayers().count(ctx.layer)) return;
  struct Banned {
    const char* what;
    bool call_only;  // must be followed by '(' to count
    const char* why;
  };
  static const Banned kBanned[] = {
      {"rand", true, "ambient libc RNG"},
      {"srand", true, "ambient libc RNG seeding"},
      {"rand_r", true, "ambient libc RNG"},
      {"drand48", true, "ambient libc RNG"},
      {"random_device", false, "hardware entropy source"},
      {"time", true, "host clock read"},
      {"clock", true, "host clock read"},
      {"gettimeofday", true, "host clock read"},
      {"clock_gettime", true, "host clock read"},
      {"steady_clock", false, "host clock"},
      {"system_clock", false, "host clock"},
      {"high_resolution_clock", false, "host clock"},
  };
  for (size_t i = 0; i < ctx.scan->code.size(); ++i) {
    const std::string& code = ctx.scan->code[i];
    for (const Banned& banned : kBanned) {
      bool hit = banned.call_only ? CallsFunction(code, banned.what)
                                  : HasWord(code, banned.what);
      if (hit) {
        Emit(ctx, static_cast<int>(i), "determinism",
             std::string("'") + banned.what + "' (" + banned.why +
                 ") in deterministic model layer '" + ctx.layer +
                 "'; modeled results must be reproducible — use the "
                 "seeded pmemolap::Rng or take time as an input");
      }
    }
  }
}

// --- Rule: raw-thread ------------------------------------------------------

void CheckRawThread(const FileContext& ctx) {
  if (ctx.in_tests) return;  // tests may orchestrate threads directly
  if (ctx.path.rfind("src/exec/", 0) == 0) return;
  for (size_t i = 0; i < ctx.scan->code.size(); ++i) {
    const std::string& code = ctx.scan->code[i];
    size_t pos = code.find("std::thread");
    if (pos == std::string::npos) {
      pos = code.find("std::jthread");
      if (pos == std::string::npos) continue;
    }
    // Querying the host's core count is not thread creation.
    if (code.find("hardware_concurrency", pos) != std::string::npos) {
      continue;
    }
    Emit(ctx, static_cast<int>(i), "raw-thread",
         "std::thread outside src/exec/ — route parallelism through "
         "WorkStealingPool so cancellation, stats and TSan coverage "
         "stay centralized");
  }
}

// --- Rule: volatile-sync ---------------------------------------------------

void CheckVolatile(const FileContext& ctx) {
  for (size_t i = 0; i < ctx.scan->code.size(); ++i) {
    if (HasWord(ctx.scan->code[i], "volatile")) {
      Emit(ctx, static_cast<int>(i), "volatile-sync",
           "volatile is not a synchronization primitive; use "
           "std::atomic or a mutex");
    }
  }
}

// --- Rule: header-static ---------------------------------------------------

void CheckHeaderStatic(const FileContext& ctx) {
  if (!IsHeader(ctx.path)) return;
  const auto& code = ctx.scan->code;
  for (size_t i = 0; i < code.size(); ++i) {
    size_t pos = FindWord(code[i], "static");
    if (pos == std::string::npos) continue;
    // Only declarations that *start* at `static` (optionally after
    // `inline`): mid-expression matches are casts or sizeofs.
    std::string before = code[i].substr(0, pos);
    size_t nonspace = before.find_last_not_of(" \t");
    if (nonspace != std::string::npos) {
      std::string prefix = before.substr(0, nonspace + 1);
      if (prefix.size() < 6 ||
          prefix.compare(prefix.size() - 6, 6, "inline") != 0) {
        continue;
      }
    }
    // Gather the declaration until its first structural terminator.
    std::string decl = code[i].substr(pos);
    size_t j = i;
    while (decl.find_first_of(";={(") == std::string::npos &&
           j + 1 < code.size() && j - i < 4) {
      ++j;
      decl += " " + code[j];
    }
    size_t term = decl.find_first_of(";={(");
    if (term == std::string::npos) continue;
    if (decl[term] == '(') continue;  // function declaration
    std::string head = decl.substr(0, term);
    if (HasWord(head, "const") || HasWord(head, "constexpr") ||
        HasWord(head, "constinit") || HasWord(head, "static_assert")) {
      continue;
    }
    Emit(ctx, static_cast<int>(i), "header-static",
         "mutable static storage in a header (ODR hazard and an "
         "unsynchronized shared variable); make it constexpr, or move "
         "it behind a function in a .cc file");
  }
}

// --- Rule: discarded-status ------------------------------------------------

void CheckDiscardedStatus(const FileContext& ctx) {
  for (size_t i = 0; i < ctx.scan->code.size(); ++i) {
    const std::string& code = ctx.scan->code[i];
    size_t pos = 0;
    bool flagged = false;
    while (!flagged && (pos = code.find("(void)", pos)) != std::string::npos) {
      size_t after = pos + 6;
      while (after < code.size() &&
             std::isspace(static_cast<unsigned char>(code[after]))) {
        ++after;
      }
      // `(void)call(...)` silences [[nodiscard]]. `(void)name;` is the
      // unused-variable idiom, `(void)` in a parameter list and
      // `(void*)` casts are not discards — only call expressions count.
      size_t stmt_end = code.find(';', after);
      std::string expr = code.substr(
          after, stmt_end == std::string::npos ? std::string::npos
                                               : stmt_end - after);
      if (after < code.size() &&
          (IsWordChar(code[after]) || code[after] == ':') &&
          expr.find('(') != std::string::npos) {
        Emit(ctx, static_cast<int>(i), "discarded-status",
             "(void)-discarding a result; Status and Result<T> are "
             "[[nodiscard]] — handle the error, or justify with "
             "// lint:allow(discarded-status): <reason>");
        flagged = true;
      }
      pos = after;
    }
    if (!flagged && code.find("std::ignore") != std::string::npos &&
        code.find('=', code.find("std::ignore")) != std::string::npos) {
      Emit(ctx, static_cast<int>(i), "discarded-status",
           "assigning to std::ignore discards a result; handle the "
           "error, or justify with // lint:allow(discarded-status)");
    }
  }
}

// --- Rule: unseeded-rng ----------------------------------------------------

void CheckUnseededRng(const FileContext& ctx) {
  static const char* kEngines[] = {
      "mt19937",      "mt19937_64", "default_random_engine",
      "minstd_rand",  "minstd_rand0", "ranlux24", "ranlux48",
      "knuth_b",
  };
  for (size_t i = 0; i < ctx.scan->code.size(); ++i) {
    const std::string& code = ctx.scan->code[i];
    for (const char* engine : kEngines) {
      size_t pos = FindWord(code, engine);
      if (pos == std::string::npos) continue;
      size_t after = pos + std::string(engine).size();
      // Skip an identifier name: `std::mt19937 gen ...`
      while (after < code.size() &&
             (std::isspace(static_cast<unsigned char>(code[after])) ||
              IsWordChar(code[after]))) {
        ++after;
      }
      bool unseeded = false;
      if (after >= code.size() || code[after] == ';') {
        unseeded = true;  // default-constructed
      } else if (code[after] == '(' || code[after] == '{') {
        char close = code[after] == '(' ? ')' : '}';
        size_t k = after + 1;
        while (k < code.size() &&
               std::isspace(static_cast<unsigned char>(code[k]))) {
          ++k;
        }
        unseeded = k < code.size() && code[k] == close;
      }
      if (unseeded) {
        Emit(ctx, static_cast<int>(i), "unseeded-rng",
             std::string("std::") + engine +
                 " constructed without an explicit seed; results must "
                 "be reproducible across runs and platforms (prefer "
                 "the project Rng)");
      }
    }
  }
}

// --- Rule: persist-raw-write -----------------------------------------------

/// Only `Store`/`NtStore` may mutate persisted state: they are crash
/// boundaries, they price the write, and they keep the region's per-line
/// state (`line_state`) honest. A raw memcpy/memset into a
/// PersistentRegion's backing memory bypasses all three, so outside
/// src/durability/ (which owns the primitives and recovery's image
/// rebuild) it is banned. Detection is lexical: the destination (first
/// argument) of memcpy/memmove/memset referencing a region's exposed
/// buffer — `<something>region*.data()` or `persisted()`.
void CheckPersistRawWrite(const FileContext& ctx) {
  if (ctx.in_tests) return;  // tests stage torn bytes on purpose
  if (ctx.path.rfind("src/durability/", 0) == 0) return;
  if (ctx.path.rfind("src/", 0) != 0) return;
  static const char* kWriters[] = {"memcpy", "memmove", "memset"};
  for (size_t i = 0; i < ctx.scan->code.size(); ++i) {
    const std::string& code = ctx.scan->code[i];
    for (const char* writer : kWriters) {
      size_t pos = FindWord(code, writer);
      if (pos == std::string::npos) continue;
      size_t open = code.find('(', pos);
      if (open == std::string::npos) continue;
      // Destination = first argument, up to a top-level comma. A long
      // destination expression spilling to the next physical line is
      // out of reach for a line matcher; in-tree style keeps the
      // destination on the call line.
      std::string dest;
      int depth = 0;
      for (size_t j = open + 1; j < code.size(); ++j) {
        char c = code[j];
        if (c == '(' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == ']' || c == '}') {
          if (depth == 0) break;
          --depth;
        }
        if (c == ',' && depth == 0) break;
        dest += c;
      }
      std::string lowered = dest;
      std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      bool region_data = lowered.find("region") != std::string::npos &&
                         dest.find("data()") != std::string::npos;
      bool persisted_image = dest.find("persisted()") != std::string::npos;
      if (region_data || persisted_image) {
        Emit(ctx, static_cast<int>(i), "persist-raw-write",
             std::string(writer) +
                 " into PersistentRegion backing memory — raw writes "
                 "bypass the crash boundary, the persist cost model and "
                 "the region's per-line state (line_state); mutate "
                 "persisted state through Store/NtStore only");
      }
    }
  }
}

// --- Rule: test-only-api (tree pass) ---------------------------------------

// A function declared in a src/ header earns its place only if some
// workload calls it: a test that runs code no bench, example or
// perfbench run reaches is evidence about a copy, not about the
// pipeline. The pass is lexical and name-based: a CamelCase name
// declared in a src/**/*.h header is flagged when no .h/.cc/.cpp file
// under src/, bench/, examples/ or perfbench/ *uses* it (tests/ never
// count). Every occurrence that is not a declaration is a use, so the
// rule can miss dead code (a shared name keeps it alive) but never
// flags live code.

/// CamelCase: an uppercase first letter, at least one lowercase letter,
/// no underscore (macros are not functions).
bool IsCamelCase(const std::string& word) {
  if (word.empty() || !std::isupper(static_cast<unsigned char>(word[0]))) {
    return false;
  }
  bool lower = false;
  for (char c : word) {
    if (c == '_') return false;
    lower = lower || std::islower(static_cast<unsigned char>(c));
  }
  return lower;
}

/// Keywords that can precede a call but never spell a type: in
/// `return Foo(x)` the name is used, not declared.
bool IsExpressionKeyword(const std::string& word) {
  static const std::set<std::string> kKeywords = {
      "return", "co_return", "co_await", "co_yield", "throw",
      "else",   "case",      "new",      "delete",   "do"};
  return kKeywords.count(word) > 0;
}

/// True when the occurrence of an identifier at [pos, end) of `code`
/// declares it: `(` follows, and the text before it on its line — once a
/// trailing `Name::` chain is dropped — is a non-empty run of type tokens
/// (identifiers, `::`, `<>`, template commas, `*`, `&`, `[]`) that ends
/// in whitespace, `*`, `&` or `>`. The chain is dropped first so that a
/// qualified call (`ns::Foo(`) reads as a use; a comma outside `<>` is an
/// argument separator, so a call continuing an argument list is a use.
bool IsDeclaration(const std::string& code, size_t pos, size_t end) {
  size_t after = code.find_first_not_of(" \t", end);
  if (after == std::string::npos || code[after] != '(') return false;
  size_t cut = pos;
  while (cut >= 2 && code[cut - 1] == ':' && code[cut - 2] == ':') {
    size_t start = cut - 2;
    while (start > 0 && IsWordChar(code[start - 1])) --start;
    if (start == cut - 2) break;  // a leading `::` qualifies nothing
    cut = start;
  }
  if (cut == 0) return false;
  char last = code[cut - 1];
  if (!(std::isspace(static_cast<unsigned char>(last)) || last == '*' ||
        last == '&' || last == '>')) {
    return false;
  }
  bool identifier = false;
  int angle = 0;
  for (size_t i = 0; i < cut;) {
    char c = code[i];
    if (IsWordChar(c)) {
      size_t j = i;
      while (j < cut && IsWordChar(code[j])) ++j;
      if (IsExpressionKeyword(code.substr(i, j - i))) return false;
      identifier = true;
      i = j;
      continue;
    }
    if (c == ':') {
      if (i + 1 >= cut || code[i + 1] != ':') return false;
      i += 2;
      continue;
    }
    if (c == '<') ++angle;
    if (c == '>' && --angle < 0) return false;
    if (c == ',' && angle == 0) return false;
    if (!std::isspace(static_cast<unsigned char>(c)) &&
        std::string("<>,*&[]").find(c) == std::string::npos) {
      return false;
    }
    ++i;
  }
  return identifier;
}

/// Calls `visit(name, declaration)` for every CamelCase identifier on
/// one line of blanked code.
template <typename Visit>
void ForEachCamelCase(const std::string& code, Visit visit) {
  for (size_t i = 0; i < code.size();) {
    if (!IsWordChar(code[i])) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < code.size() && IsWordChar(code[j])) ++j;
    std::string word = code.substr(i, j - i);
    if (IsCamelCase(word)) visit(word, IsDeclaration(code, i, j));
    i = j;
  }
}

/// Repo-relative paths of every .h/.cc/.cpp file under `root`/`tops`,
/// sorted; lint fixture directories are skipped (they violate on
/// purpose and are linted explicitly by the test suite).
std::vector<std::string> SourceFiles(const std::filesystem::path& base,
                                     std::initializer_list<const char*> tops) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const char* top : tops) {
    fs::path dir = base / top;
    if (!fs::is_directory(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && it->path().filename() == "fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      files.push_back(fs::relative(it->path(), base).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::optional<std::string> ReadText(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void CheckTestOnlyApi(const std::filesystem::path& base, Report* report) {
  struct Declaration {
    std::string path;
    int line_index;
    std::string name;
  };
  std::map<std::string, ScannedFile> scans;
  std::vector<Declaration> declarations;
  std::set<std::string> declared;
  for (const std::string& path :
       SourceFiles(base, {"src", "bench", "examples", "perfbench"})) {
    const ScannedFile& scan =
        scans.emplace(path, ScanFile(ReadText(base / path).value_or("")))
            .first->second;
    if (path.rfind("src/", 0) != 0 || !IsHeader(path)) continue;
    for (size_t i = 0; i < scan.code.size(); ++i) {
      ForEachCamelCase(scan.code[i], [&](const std::string& name,
                                         bool declaration) {
        if (!declaration) return;
        declarations.push_back({path, static_cast<int>(i), name});
        declared.insert(name);
      });
    }
  }
  std::set<std::string> used;
  for (const auto& [path, scan] : scans) {
    for (const std::string& code : scan.code) {
      ForEachCamelCase(code, [&](const std::string& name, bool declaration) {
        if (!declaration && declared.count(name)) used.insert(name);
      });
    }
  }
  for (const Declaration& site : declarations) {
    if (used.count(site.name)) continue;
    EmitDiagnostic(site.path, scans.at(site.path), site.line_index,
                   "test-only-api",
                   "'" + site.name +
                       "' is declared in a src/ header but no file under "
                       "src/, bench/, examples/ or perfbench/ uses it; "
                       "delete it (and the tests that check only it), or "
                       "justify with // lint:allow(test-only-api): <reason>",
                   report);
  }
}

}  // namespace

std::string Diagnostic::ToString() const {
  return file + ":" + std::to_string(line) + ": error: [" + rule + "] " +
         message;
}

std::vector<std::string> RuleNames() {
  return {"layering",           "determinism",
          "raw-thread",         "volatile-sync",
          "header-static",      "discarded-status",
          "unseeded-rng",       "persist-raw-write",
          "persist-order",      "persist-double-flush",
          "persist-mixed-store", "test-only-api"};
}

void LintFileContent(const std::string& path, const std::string& content,
                     Report* report) {
  ScannedFile scan = ScanFile(content);
  FileContext ctx;
  ctx.path = path;
  ctx.layer = PathLayer(path);
  ctx.in_tests = path.rfind("tests/", 0) == 0;
  ctx.scan = &scan;
  ctx.report = report;
  CheckLayering(ctx);
  CheckDeterminism(ctx);
  CheckRawThread(ctx);
  CheckVolatile(ctx);
  CheckHeaderStatic(ctx);
  CheckDiscardedStatus(ctx);
  CheckUnseededRng(ctx);
  CheckPersistRawWrite(ctx);
  CheckPersistOrder(path, scan, report);
  for (const AllowNote& note : scan.allow_notes) {
    report->allow_audits.push_back(
        AllowAudit{path, note.line, note.rule, note.reason});
  }
  ++report->files_scanned;
}

bool LintFile(const std::string& fs_path, const std::string& repo_relative,
              Report* report) {
  std::optional<std::string> content = ReadText(fs_path);
  if (!content) return false;
  LintFileContent(repo_relative, *content, report);
  return true;
}

int LintTree(const std::string& root, Report* report) {
  std::filesystem::path base(root);
  if (!std::filesystem::is_directory(base / "src")) return -1;
  int scanned = 0;
  for (const std::string& relative : SourceFiles(base, {"src", "tests"})) {
    if (LintFile((base / relative).string(), relative, report)) ++scanned;
  }
  CheckTestOnlyApi(base, report);
  return scanned;
}

int ExitCode(const Report& report) { return report.clean() ? 0 : 1; }

}  // namespace pmemolap::lint
