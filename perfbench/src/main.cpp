// perfbench: the repository benchmark binary (built and run by run.py).
//
//   perfbench --workload <paper_scale|converge|serve_mixed|multi_device>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--digests <file>] [--commit <id>]
//             [--inject <none|eval|pump>]
//
// Prints its metrics as text lines and, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"

extern char** environ;

namespace {

using perfbench::Inject;
using perfbench::Options;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <paper_scale|converge|"
               "serve_mixed|multi_device> --seed <n> --seconds <s> "
               "--trace <0|1> [--digests <file>] "
               "[--commit <id>] [--inject <none|eval|pump>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv, std::string& commit) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + key);
    }
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = value == "1";
      } else if (key == "--digests") {
        o.digests = value;
      } else if (key == "--commit") {
        commit = value;
      } else if (key == "--inject") {
        o.inject = value == "eval"   ? Inject::kEval
                   : value == "pump" ? Inject::kPump
                   : value == "none" ? Inject::kNone
                                     : (usage("bad --inject " + value),
                                        Inject::kNone);
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (o.workload.empty()) {
    usage("--workload is required");
  }
  if (!(o.seconds > 0)) {
    usage("--seconds must be positive");
  }
  // A delay that could not reach the workload would make a self-check
  // compare two identical programs. (converge's rounds alternate seed
  // sets, so its delayed and plain rounds would not do the same work.)
  if ((o.inject == Inject::kEval && o.workload != "paper_scale") ||
      (o.inject == Inject::kPump && o.workload != "serve_mixed")) {
    usage("the --inject delay does not reach workload " + o.workload);
  }
  if (o.inject != Inject::kNone && o.trace) {
    usage("--inject applies to untraced runs (--trace 0)");
  }
  return o;
}

/// Numbers are refused from builds or environments that would not measure
/// the default program: engine toggles and tuned tables change what runs.
bool environment_ok() {
  bool ok = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FASTPSO_", 8) == 0) {
      std::cerr << "perfbench: refusing to report with " << *e
                << " set (measure the default program)\n";
      ok = false;
    }
  }
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to report from a build without NDEBUG "
               "(build Release)\n";
  ok = false;
#endif
  return ok;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  std::string commit = "unknown";
  const Options options = parse(argc, argv, commit);
  if (!environment_ok()) {
    return 3;
  }
  std::cout << "env commit=" << commit << " compiler=\"" << __VERSION__
            << "\" cpu=\"" << cpu_model()
            << "\" nproc=" << std::thread::hardware_concurrency()
            << " workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << "\n";

  perfbench::Report report(options);
  try {
    if (options.workload == "paper_scale") {
      perfbench::run_paper_scale(options, report);
    } else if (options.workload == "converge") {
      perfbench::run_converge(options, report);
    } else if (options.workload == "serve_mixed") {
      perfbench::run_serve_mixed(options, report);
    } else if (options.workload == "multi_device") {
      perfbench::run_multi_device(options, report);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  return report.finish();
}
