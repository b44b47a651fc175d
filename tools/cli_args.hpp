// Command-line helpers shared by the vcsearch tools.  Options are
// `--name value` pairs or bare `--name` switches, found anywhere in argv.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "proof/proof_types.hpp"
#include "support/errors.hpp"

namespace vc {

// The value following `name`, or `fallback` when the option is absent.
inline const char* arg_value(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

inline bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

// --scheme (default hybrid); an unknown name exits 2 listing the accepted ones.
inline SchemeKind scheme_arg(int argc, char** argv) {
  try {
    return parse_scheme(arg_value(argc, argv, "--scheme", "hybrid"));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

}  // namespace vc
