#include "crypto/standard_params.hpp"

#include <map>
#include <mutex>

#include "support/errors.hpp"
#include "support/rng.hpp"

namespace vc {

namespace {

struct ParamSet {
  RsaModulus modulus;
  Bigint g;
};

ParamSet make_params(std::size_t bits) {
  // Deterministic generation: same seed => same parameters on every host.
  // Only sizes without a pinned set take this path.
  DeterministicRng rng(0x5eed5afe'0000ULL + bits, "vc.standard-params");
  RsaModulus m = generate_modulus(rng, bits, /*safe=*/true);
  Bigint g = random_qr_generator(rng, m.n);
  return ParamSet{std::move(m), std::move(g)};
}

// Pinned sets for the common sizes, to avoid the safe-prime search.  They
// were generated with make_params' seeds by the keygen that still drew
// Miller–Rabin bases from the same RNG stream, so tools/gen_params (and
// make_params) no longer reproduce them; StandardParams.PinnedSizesAreValid
// checks every set instead.
struct PinnedHex {
  const char* p;
  const char* q;
  const char* g;
};

const std::map<std::size_t, PinnedHex>& pinned_table();

ParamSet load_params(std::size_t bits) {
  const auto& table = pinned_table();
  auto it = table.find(bits);
  if (it == table.end()) return make_params(bits);
  Bigint p = Bigint::from_bytes(from_hex(it->second.p));
  Bigint q = Bigint::from_bytes(from_hex(it->second.q));
  Bigint g = Bigint::from_bytes(from_hex(it->second.g));
  return ParamSet{RsaModulus{.n = p * q, .p = std::move(p), .q = std::move(q)}, std::move(g)};
}

const ParamSet& params_for(std::size_t bits) {
  static std::mutex mu;
  static std::map<std::size_t, ParamSet> cache;
  std::lock_guard lock(mu);
  auto it = cache.find(bits);
  if (it == cache.end()) {
    it = cache.emplace(bits, load_params(bits)).first;
  }
  return it->second;
}

}  // namespace

const RsaModulus& standard_accumulator_modulus(std::size_t modulus_bits) {
  return params_for(modulus_bits).modulus;
}

const Bigint& standard_qr_generator(std::size_t modulus_bits) {
  return params_for(modulus_bits).g;
}

namespace {
const std::map<std::size_t, PinnedHex>& pinned_table() {
  // Seed-pinned safe primes for 512, 1024 and 2048 bits (see above).
  static const std::map<std::size_t, PinnedHex> table = {
      {512,
       {"d2fa22d88c8e166c8dde7238ef1e8a49f52f40838221f2d26942535f3ec6d94f",
        "e3c793710578c790a0ca32cc176e50aec8a482bd426f5a1bae2d4ed4190b7def",
        "b536e553cce13169f11d5a5fbe503319f77b0992dbb2980540acf91d9d444f23b6a941d44591d69254da4"
        "2644b4845ce331b0f10ce586ac25e31133e2de8f3a1"}},
      {1024,
       {"bc60e6aa5e6bed759bed6871dd55054169ee26dbff0f1f5ff41a4245418eb719f3d61e0dacff8207e2b44"
        "69e70c0eab6aa64605a745b3ff4a19377ec40054757",
        "bf84cde92faa07c7ef216cdbea9637a3b64609e7c8555a6ac41019806c15993dd6ac420456633e5997a4d"
        "43998197a21367cda6ea317f39f5cf43139f1bfc30f",
        "4fbf19781b16eff397e8eb32bc42955797c6f72a3cfd368e1746788bab30ed1c6d3c3f3e8f76ba48c7309"
        "7db9a9a306037e928cc4f66530af688b84f4afea349b428955ac6b6a5e80265c018c344b03ff0fe3759a9"
        "301307bef01ee388f874fd28a3ed74782c4b5ec21234c90eea20d229035f8c799d23d9354f39e25070766"
        "f"}},
      {2048,
       {"f9e29df2a6618d0fc2be66f4f86be002d1425e3b0545bc73daff18b07cdc1e305b555f3cfc3c3d83a25ec"
        "f027f6c75c6a733d8af494a0f148fba2416ae5e0607f711961615e3d39064ba4cbf6c359cf0f7a0baa309"
        "9a0fcacb53c49cf05ee72b04c3ad4e1b62fe0e7ca8666bcfea7c87ccdc7f1e8a6a08b30adad880cb6ed21"
        "3",
        "ee105287ab33903561ca8faade15dc5cb85153076f2edf49abb536fa2c1e2cddce76449997fd9ce901361"
        "be3f3f67c3ca16ee17e090284a2126cf93f7432cd0bfc1c158f0a637e94ace3ec2eafc2356f4b5348cc55"
        "6f230483b8026111e22e03d7e42830bd26a54a20a9fe164d3f7901d0a1e19bf18101860ecf3c5daea8ea8"
        "b",
        "0a371f554b6cc50861ad215827ddf89cdb0dc64d5b0002e91d6394359c1fe7c862c523917a087ae824a15"
        "3c0801963a445ec50c8a2aa1d1aec5f7ab8756064157269647178e7aadc460fc125d0db452ca931cef80e"
        "04e95b864053c394a82d4b0f307f17c2b2447c049ee9ddef130fb1937ba50f2855733d699f343b8ff7731"
        "5d21c1e954d61a2036b5f9e861c6ba5b77248d33376e1708a2b72262b57a316ed04c48d2e636f73c52408"
        "79123958b5a0bbe683663d18cb93876f5f47404d193f9ddc31a6694c3edc803b56e7c6d8ef8f64b864c36"
        "578c3369474514ecfb14508ec76b24c6dd8c0d585959d2273ec19239dfbbba249cf6a5971398011e425a0"
        "68"}},
  };
  return table;
}
}  // namespace

}  // namespace vc
