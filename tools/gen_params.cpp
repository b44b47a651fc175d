// Generator for seed-pinned accumulator parameter sets in the format of
// src/crypto/standard_params.cpp.  Run: gen_params [--out PATH] <bits>...
//
// Output goes to stdout by default; --out writes to a scratch file instead
// (the generated table is pasted into standard_params.cpp, not checked in).
// The sets pinned there came from an earlier keygen whose RNG stream also
// fed Miller–Rabin bases, so this tool's output differs from them for the
// same seed; the StandardParams tests check the pinned sets.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "crypto/keygen.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  std::FILE* out = stdout;
  int first = 1;
  if (argc >= 3 && std::strcmp(argv[1], "--out") == 0) {
    out = std::fopen(argv[2], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "gen_params: cannot open %s for writing\n", argv[2]);
      return 2;
    }
    first = 3;
  }
  if (first >= argc) {
    std::fprintf(stderr, "usage: gen_params [--out PATH] <bits>...\n");
    return 2;
  }
  for (int i = first; i < argc; ++i) {
    std::size_t bits = static_cast<std::size_t>(std::atoi(argv[i]));
    vc::DeterministicRng rng(0x5eed5afe0000ULL + bits, "vc.standard-params");
    vc::RsaModulus m = vc::generate_modulus(rng, bits, /*safe=*/true);
    vc::Bigint g = vc::random_qr_generator(rng, m.n);
    std::fprintf(out, "{%zu,\n {\"%s\",\n  \"%s\",\n  \"%s\"}},\n", bits,
                 vc::to_hex(m.p.to_bytes()).c_str(), vc::to_hex(m.q.to_bytes()).c_str(),
                 vc::to_hex(g.to_bytes()).c_str());
    std::fflush(out);
  }
  if (out != stdout) std::fclose(out);
  return 0;
}
