#include "accumulator/accumulator.hpp"

#include <algorithm>

#include "crypto/keygen.hpp"
#include "support/errors.hpp"
#include "support/threadpool.hpp"

namespace vc {

void AccumulatorParams::write(ByteWriter& w) const {
  n.write(w);
  g.write(w);
}

AccumulatorParams AccumulatorParams::read(ByteReader& r) {
  Bigint n = Bigint::read(r);
  Bigint g = Bigint::read(r);
  return AccumulatorParams{std::move(n), std::move(g)};
}

AccumulatorContext AccumulatorContext::owner(const RsaModulus& m, Bigint g) {
  AccumulatorParams params{m.n, std::move(g)};
  return AccumulatorContext(std::move(params), PowerContext(m.n, m.p, m.q));
}

AccumulatorContext AccumulatorContext::public_side(AccumulatorParams params) {
  Bigint n = params.n;
  return AccumulatorContext(std::move(params), PowerContext(std::move(n)));
}

Bigint AccumulatorContext::pow_product(const Bigint& base,
                                       std::span<const Bigint> primes) const {
  if (primes.empty()) return Bigint::mod(base, params_.n);
  return power_.pow(base, product_exponent(primes));
}

Bigint AccumulatorContext::product_exponent(std::span<const Bigint> primes) const {
  if (power_.has_trapdoor()) {
    // Fold the product mod phi(n): one short exponent at the end.
    const Bigint& phi = power_.phi();
    Bigint e(1);
    for (const Bigint& x : primes) {
      e = Bigint::mod(e * x, phi);
    }
    return e;
  }
  // Public side: the exponent is the genuine integer product.  With a pool
  // attached, the product tree's independent chunks build concurrently (the
  // final pow dominates, but the product of thousands of reps is not free).
  constexpr std::size_t kPooledProductThreshold = 256;
  if (pool_ != nullptr && primes.size() >= kPooledProductThreshold) {
    std::size_t chunks = std::min(primes.size() / (kPooledProductThreshold / 2),
                                  pool_->worker_count() + 1);
    std::size_t per = (primes.size() + chunks - 1) / chunks;
    std::vector<Bigint> partial(chunks, Bigint(1));
    pool_->parallel_for(0, chunks, [&](std::size_t c) {
      std::size_t lo = c * per, hi = std::min(primes.size(), lo + per);
      if (lo < hi) partial[c] = Bigint::product(primes.subspan(lo, hi - lo));
    });
    return Bigint::product(partial);
  }
  return Bigint::product(primes);
}

Bigint AccumulatorContext::delete_elements(const Bigint& c,
                                           std::span<const Bigint> removed) const {
  if (!power_.has_trapdoor()) {
    throw UsageError("delete_elements requires the accumulator trapdoor");
  }
  return power_.pow(c, Bigint::invert_mod(product_exponent(removed), power_.phi()));
}

}  // namespace vc
