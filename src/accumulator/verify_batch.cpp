#include "accumulator/verify_batch.hpp"

#include <array>
#include <cstring>
#include <iterator>
#include <map>
#include <random>

#include "obs/metrics.hpp"
#include "support/errors.hpp"

namespace vc {

namespace {

obs::Counter& equations_checked() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_verify_batch_equations_total", "", "Accumulator equations checked through VerifyBatch");
  return c;
}

}  // namespace

HmacSha256 random_batch_key() {
  std::random_device device;
  std::array<std::uint8_t, 32> key{};
  for (std::size_t i = 0; i < key.size(); i += sizeof(unsigned)) {
    const unsigned word = device();
    std::memcpy(key.data() + i, &word, sizeof(word));
  }
  return HmacSha256(key);
}

VerifyBatch::VerifyBatch(const AccumulatorContext& ctx, const HmacSha256& key,
                         std::span<const std::uint8_t> context)
    : ctx_(ctx), key_(key), context_(context.begin(), context.end()) {}

VerifyBatch::VerifyBatch(const AccumulatorContext& ctx) : ctx_(ctx) {}

void VerifyBatch::add(std::vector<Term> terms, Bigint y, const char* failure) {
  // first_failure() reports a false equation by its message.
  if (failure == nullptr) throw UsageError("VerifyBatch: an equation needs a failure message");
  equations_.push_back(Equation{std::move(terms), std::move(y), failure});
}

void VerifyBatch::add_membership(const Bigint& c, const Bigint& witness,
                                 std::span<const Bigint> subset, const char* failure) {
  std::vector<Term> terms;
  terms.push_back(Term{witness, ctx_.product_exponent(subset)});
  add(std::move(terms), c, failure);
}

void VerifyBatch::add_nonmembership(const Bigint& c, const NonmembershipWitness& w,
                                    std::span<const Bigint> outsiders, const char* failure) {
  std::vector<Term> terms;
  terms.push_back(Term{c, w.a});
  terms.push_back(Term{w.d, -ctx_.product_exponent(outsiders)});
  add(std::move(terms), ctx_.g(), failure);
}

const char* VerifyBatch::first_failure() const {
  static obs::Histogram& stage = obs::MetricsRegistry::global().stage("verify_batch");
  obs::Span span(stage, "verify_batch");
  equations_checked().inc(equations_.size());
  if (equations_.size() > 1 && combined_holds()) return nullptr;
  for (const Equation& eq : equations_) {
    if (!holds_exactly(eq)) return eq.failure;
  }
  return nullptr;
}

void VerifyBatch::check() const {
  if (const char* failure = first_failure()) throw VerifyError(failure);
}

namespace {

// Inverses mod n of every x, with one modular inversion (Montgomery's
// trick: invert the product, then peel the factors off it); nullopt when
// some x is not a unit.
std::optional<std::vector<Bigint>> invert_all(const std::vector<Bigint>& xs, const Bigint& n) {
  if (xs.empty()) return std::vector<Bigint>{};
  std::vector<Bigint> prefix;  // prefix[i] = x_0 · ... · x_i
  prefix.reserve(xs.size());
  prefix.push_back(Bigint::mod(xs[0], n));
  for (std::size_t i = 1; i < xs.size(); ++i) prefix.push_back(Bigint::mod(prefix.back() * xs[i], n));
  Bigint inv;
  if (mpz_invert(inv.raw_mut(), prefix.back().raw(), n.raw()) == 0) return std::nullopt;
  std::vector<Bigint> out(xs.size());
  for (std::size_t i = xs.size(); i-- > 1;) {
    out[i] = Bigint::mod(inv * prefix[i - 1], n);  // (x_0 ... x_i)^-1 · (x_0 ... x_{i-1})
    inv = Bigint::mod(inv * xs[i], n);
  }
  out[0] = std::move(inv);
  return out;
}

}  // namespace

// Z = Π_i (Π_j x_ij^{e_ij} / y_i)^{r_i} as one multi-exponentiation: the
// terms of one base merged (the signed root, g and a part's b recur across
// equations), a base with a negative total exponent replaced by its
// inverse.  The test is Z^2 = 1, i.e. both sides' squares agree.  It holds
// only when Z is a unit, so a value that is not one (0, say) fails it and
// is left to the exact checks; an inverse that does not exist does too.
bool VerifyBatch::combined_holds() const {
  const HmacSha256 key = key_.has_value() ? *key_ : random_batch_key();
  Sha256 keyed_context = key.inner();
  keyed_context.update(context_);
  std::map<Bigint, Bigint> exponent;
  for (std::size_t i = 0; i < equations_.size(); ++i) {
    Sha256 inner = keyed_context;
    std::uint8_t index_le[8];
    for (std::size_t b = 0; b < 8; ++b) index_le[b] = static_cast<std::uint8_t>(i >> (8 * b));
    inner.update(std::span<const std::uint8_t>(index_le, 8));
    const Digest mac = key.finish(inner);
    const Bigint r = Bigint::from_bytes(std::span<const std::uint8_t>(mac.data(), 8));
    const Equation& eq = equations_[i];
    for (const Term& term : eq.terms) exponent[term.base] += term.exp * r;
    exponent[eq.y] -= r;
  }
  std::vector<Bigint> bases, exps, inverted, inverted_exps;
  for (auto& [base, e] : exponent) {
    if (e.sign() > 0) {
      bases.push_back(base);
      exps.push_back(std::move(e));
    } else if (e.sign() < 0) {
      inverted.push_back(base);
      inverted_exps.push_back(-e);
    }
  }
  const Bigint& n = ctx_.n();
  std::optional<std::vector<Bigint>> inverses = invert_all(inverted, n);
  if (!inverses) return false;
  std::move(inverses->begin(), inverses->end(), std::back_inserter(bases));
  std::move(inverted_exps.begin(), inverted_exps.end(), std::back_inserter(exps));
  const PowerContext& power = ctx_.power();
  const Bigint z = power.multi_pow(bases, exps);
  return power.mul(z, z).is_one();
}

// Π_{e >= 0} x^e = y · Π_{e < 0} x^{-e}: the equation itself, with no
// inversion (a base that is not a unit mod n then fails instead of throwing).
bool VerifyBatch::holds_exactly(const Equation& eq) const {
  const PowerContext& power = ctx_.power();
  Bigint lhs = Bigint::mod(Bigint(1), power.modulus());
  Bigint rhs = Bigint::mod(eq.y, power.modulus());
  for (const Term& term : eq.terms) {
    if (term.exp.is_negative()) {
      rhs = power.mul(rhs, power.pow(term.base, -term.exp));
    } else {
      lhs = power.mul(lhs, power.pow(term.base, term.exp));
    }
  }
  return lhs == rhs;
}

}  // namespace vc
