// Table 1: lines of code needed to emulate each comparison system inside
// the DLion framework's plugin APIs. We measure our own implementations the
// same way: the body of each system's generate_partial_gradients plugin
// (PartialGradientStrategy::generate) and any synchronization-policy code it
// needs beyond the built-in synch_training parameterization.
//
// The binary parses the actual sources in the repository (located via the
// DLION_SOURCE_DIR compile definition), so the numbers track the code.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/table.h"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Count the statement lines of the function whose definition contains
/// `marker` (e.g. "BaselineStrategy::generate"): from the opening brace to
/// its match, skipping blank and comment-only lines.
int function_loc(const std::string& source, const std::string& marker) {
  const std::size_t pos = source.find(marker);
  if (pos == std::string::npos) return -1;
  const std::size_t open = source.find('{', pos);
  if (open == std::string::npos) return -1;
  int depth = 0;
  std::size_t end = open;
  for (std::size_t i = open; i < source.size(); ++i) {
    if (source[i] == '{') ++depth;
    if (source[i] == '}') {
      --depth;
      if (depth == 0) {
        end = i;
        break;
      }
    }
  }
  int lines = 0;
  std::istringstream body(source.substr(open + 1, end - open - 1));
  std::string line;
  while (std::getline(body, line)) {
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;        // blank
    if (line.compare(first, 2, "//") == 0) continue; // comment-only
    ++lines;
  }
  return lines;
}

}  // namespace

int main() {
  const std::string root = DLION_SOURCE_DIR;
  std::cout << "\n=== Table 1: lines of code to emulate systems in the "
               "DLion framework ===\n\n";

  dlion::common::Table table(
      {"API", "Baseline", "Hop", "Gaia", "Ako"});

  const std::string baseline =
      read_file(root + "/src/systems/baseline.cpp");
  const std::string gaia = read_file(root + "/src/systems/gaia.cpp");
  const std::string ako = read_file(root + "/src/systems/ako.cpp");
  const std::string sync = read_file(root + "/src/core/sync_strategy.cpp");

  const int baseline_gen = function_loc(baseline,
                                        "BaselineStrategy::generate");
  const int gaia_gen = function_loc(gaia, "GaiaStrategy::generate");
  const int ako_gen = function_loc(ako, "AkoStrategy::generate");
  // Hop reuses the Baseline gradient plugin; its distinguishing code is the
  // bounded-staleness/backup-worker synchronization policy. The marker is
  // the policy overload's last parameter: the other overload only forwards.
  const int sync_loc =
      function_loc(sync, "std::size_t self, const std::vector<bool>& suspected)");

  table.row()
      .cell("generate_partial_gradients")
      .cell(static_cast<long long>(baseline_gen))
      .cell(static_cast<long long>(baseline_gen))  // Hop == Baseline
      .cell(static_cast<long long>(gaia_gen))
      .cell(static_cast<long long>(ako_gen));
  table.row()
      .cell("synch_training (shared policy)")
      .cell(0LL)
      .cell(static_cast<long long>(sync_loc))
      .cell(0LL)
      .cell(0LL);
  table.print(std::cout);
  std::cout << "\nPaper's Table 1: generate_partial_gradients = 1/1/1/23 "
               "lines (Baseline/Hop/Gaia/Ako) and synch_training = 20 lines "
               "for Hop. Our plugin bodies are of the same order - each "
               "system is a small strategy on top of the framework.\n";
  return 0;
}
