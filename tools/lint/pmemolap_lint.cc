// pmemolap_lint CLI.
//
//   pmemolap_lint [--root DIR]            lint DIR/src and DIR/tests
//                                         (test-only-api also reads
//                                         DIR/bench, DIR/examples and
//                                         DIR/perfbench for uses)
//   pmemolap_lint [--root DIR] PATH...    lint exactly the given files
//                                         (PATHs are repo-relative;
//                                         fixture exclusions do not apply)
//   pmemolap_lint --list-rules            print rule names, one per line
//   pmemolap_lint --list-allows           audit in-tree lint:allow
//                                         annotations; exit 1 if any is
//                                         missing its reason text
//   pmemolap_lint --json                  machine-readable report on
//                                         stdout (diagnostics + allow
//                                         inventory)
//   pmemolap_lint --github                diagnostics as GitHub Actions
//                                         workflow annotations
//
// Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.
#include <cstdio>
#include <string>
#include <vector>

#include "lint.h"

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscaped(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void PrintJson(const pmemolap::lint::Report& report) {
  std::printf("{\n  \"files_scanned\": %d,\n", report.files_scanned);
  std::printf("  \"allowed\": %d,\n", report.allowed);
  std::printf("  \"violations\": [");
  for (size_t i = 0; i < report.diagnostics.size(); ++i) {
    const auto& d = report.diagnostics[i];
    std::printf("%s\n    {\"rule\": \"%s\", \"file\": \"%s\", "
                "\"line\": %d, \"message\": \"%s\"}",
                i == 0 ? "" : ",", JsonEscaped(d.rule).c_str(),
                JsonEscaped(d.file).c_str(), d.line,
                JsonEscaped(d.message).c_str());
  }
  std::printf("%s],\n", report.diagnostics.empty() ? "" : "\n  ");
  std::printf("  \"allows\": [");
  for (size_t i = 0; i < report.allow_audits.size(); ++i) {
    const auto& a = report.allow_audits[i];
    std::printf("%s\n    {\"rule\": \"%s\", \"file\": \"%s\", "
                "\"line\": %d, \"reason\": \"%s\"}",
                i == 0 ? "" : ",", JsonEscaped(a.rule).c_str(),
                JsonEscaped(a.file).c_str(), a.line,
                JsonEscaped(a.reason).c_str());
  }
  std::printf("%s]\n}\n", report.allow_audits.empty() ? "" : "\n  ");
}

/// Prints the allow inventory; returns the number of annotations whose
/// mandatory reason text is missing.
int PrintAllows(const pmemolap::lint::Report& report) {
  int missing = 0;
  for (const auto& a : report.allow_audits) {
    if (a.reason.empty()) {
      ++missing;
      std::printf("%s:%d: [%s] MISSING REASON — every lint:allow must "
                  "justify itself: // lint:allow(%s): <why>\n",
                  a.file.c_str(), a.line, a.rule.c_str(), a.rule.c_str());
    } else {
      std::printf("%s:%d: [%s] %s\n", a.file.c_str(), a.line,
                  a.rule.c_str(), a.reason.c_str());
    }
  }
  std::printf("pmemolap_lint: %zu audited exception(s), %d missing a "
              "reason\n",
              report.allow_audits.size(), missing);
  return missing;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> paths;
  bool json = false;
  bool github = false;
  bool list_allows = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const std::string& rule : pmemolap::lint::RuleNames()) {
        std::printf("%s\n", rule.c_str());
      }
      return 0;
    }
    if (arg == "--json") {
      json = true;
    } else if (arg == "--github") {
      github = true;
    } else if (arg == "--list-allows") {
      list_allows = true;
    } else if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pmemolap_lint: --root needs a directory\n");
        return 2;
      }
      root = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "pmemolap_lint: unknown flag '%s'\n",
                   arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  pmemolap::lint::Report report;
  if (paths.empty()) {
    int scanned = pmemolap::lint::LintTree(root, &report);
    if (scanned < 0) {
      std::fprintf(stderr,
                   "pmemolap_lint: no src/ under '%s' (use --root to "
                   "point at the repository)\n",
                   root.c_str());
      return 2;
    }
  } else {
    for (const std::string& path : paths) {
      std::string fs_path =
          path.rfind('/', 0) == 0 ? path : root + "/" + path;
      if (!pmemolap::lint::LintFile(fs_path, path, &report)) {
        std::fprintf(stderr, "pmemolap_lint: cannot read '%s'\n",
                     fs_path.c_str());
        return 2;
      }
    }
  }

  if (list_allows) {
    // Audit mode: the inventory is the output; missing reasons fail.
    int missing = PrintAllows(report);
    return missing > 0 ? 1 : 0;
  }
  if (json) {
    PrintJson(report);
    return pmemolap::lint::ExitCode(report);
  }
  if (github) {
    // GitHub Actions workflow-command annotations, one per diagnostic.
    for (const auto& d : report.diagnostics) {
      std::printf("::error file=%s,line=%d::[%s] %s\n", d.file.c_str(),
                  d.line, d.rule.c_str(), d.message.c_str());
    }
    std::printf("pmemolap_lint: %d file(s), %zu violation(s)\n",
                report.files_scanned, report.diagnostics.size());
    return pmemolap::lint::ExitCode(report);
  }

  for (const auto& diagnostic : report.diagnostics) {
    std::printf("%s\n", diagnostic.ToString().c_str());
  }
  std::printf("pmemolap_lint: %d file(s), %zu violation(s), %d audited "
              "exception(s) honored\n",
              report.files_scanned, report.diagnostics.size(),
              report.allowed);
  return pmemolap::lint::ExitCode(report);
}
