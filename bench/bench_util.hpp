#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "sim/table.hpp"

/// \file bench_util.hpp
/// Shared scaffolding for the reproduction benches: a banner, a
/// violation counter (proven inequalities must never fail — a bench
/// exits non-zero if one does), and common constants.

namespace mcds::bench {

/// Tracks violations of proven bounds; the bench's exit status.
class Falsifier {
 public:
  /// Records a check of a proven claim. Prints a loud line on failure.
  void check(bool holds, const std::string& what) {
    ++checks_;
    if (!holds) {
      ++violations_;
      std::cout << "  [VIOLATION] " << what << "\n";
    }
  }

  /// Number of checks performed.
  [[nodiscard]] std::size_t checks() const noexcept { return checks_; }

  /// Exit status for main(): 0 if every proven claim held.
  [[nodiscard]] int exit_code() const noexcept {
    return violations_ == 0 ? 0 : 1;
  }

  /// Prints the final verdict line.
  void report(const std::string& bench_name) const {
    std::cout << "\n[" << bench_name << "] " << checks_ << " checks, "
              << violations_ << " violations of proven bounds -> "
              << (violations_ == 0 ? "PASS" : "FAIL") << "\n";
  }

 private:
  std::size_t checks_ = 0;
  std::size_t violations_ = 0;
};

/// Prints the bench banner with the experiment id from DESIGN.md.
inline void banner(const std::string& experiment_id,
                   const std::string& title) {
  std::cout << "=== " << experiment_id << ": " << title << " ===\n";
}

/// "[lo, hi]" with \p precision decimals, a band label for the tables.
/// Built by appends: "literal" + std::string&& chains trip GCC 12's
/// -Wrestrict false positive at -O3.
inline std::string band_label(double lo, double hi, int precision) {
  std::string label = "[";
  label += sim::format_double(lo, precision);
  label += ", ";
  label += sim::format_double(hi, precision);
  label += ']';
  return label;
}

}  // namespace mcds::bench
