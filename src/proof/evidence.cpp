#include "proof/evidence.hpp"

namespace vc {

namespace {

std::vector<Bigint> representatives(std::span<const std::uint64_t> values, PrimeCache& primes) {
  std::vector<Bigint> reps;
  reps.reserve(values.size());
  for (std::uint64_t v : values) reps.push_back(primes.get(v));
  return reps;
}

}  // namespace

bool MembershipEvidence::verify(const Bigint& flat_acc, const Bigint& interval_root,
                                std::span<const std::uint64_t> values, PrimeCache& primes,
                                VerifyBatch& batch, const char* failure) const {
  if (interval_form) {
    return IntervalIndex::verify_membership(interval_root, interval, values, primes, batch,
                                            failure);
  }
  batch.add_membership(flat_acc, flat_witness, representatives(values, primes), failure);
  return true;
}

bool MembershipEvidence::verify(const AccumulatorContext& ctx, const Bigint& flat_acc,
                                const Bigint& interval_root,
                                std::span<const std::uint64_t> values,
                                PrimeCache& primes) const {
  VerifyBatch batch(ctx);
  return verify(flat_acc, interval_root, values, primes, batch, "membership evidence invalid") &&
         batch.holds();
}

void MembershipEvidence::write(ByteWriter& w) const {
  w.u8(interval_form ? 1 : 0);
  if (interval_form) {
    interval.write(w);
  } else {
    flat_witness.write(w);
  }
}

MembershipEvidence MembershipEvidence::read(ByteReader& r) {
  MembershipEvidence e;
  e.interval_form = r.u8() != 0;
  if (e.interval_form) {
    e.interval = IntervalMembershipProof::read(r);
  } else {
    e.flat_witness = Bigint::read(r);
  }
  return e;
}

std::size_t MembershipEvidence::encoded_size() const {
  ByteWriter w;
  write(w);
  return w.size();
}

bool NonmembershipEvidence::verify(const Bigint& flat_acc, const Bigint& interval_root,
                                   std::span<const std::uint64_t> values, PrimeCache& primes,
                                   VerifyBatch& batch, const char* failure) const {
  if (interval_form) {
    return IntervalIndex::verify_nonmembership(interval_root, interval, values, primes, batch,
                                               failure);
  }
  batch.add_nonmembership(flat_acc, flat, representatives(values, primes), failure);
  return true;
}

bool NonmembershipEvidence::verify(const AccumulatorContext& ctx, const Bigint& flat_acc,
                                   const Bigint& interval_root,
                                   std::span<const std::uint64_t> values,
                                   PrimeCache& primes) const {
  VerifyBatch batch(ctx);
  return verify(flat_acc, interval_root, values, primes, batch,
                "nonmembership evidence invalid") &&
         batch.holds();
}

void NonmembershipEvidence::write(ByteWriter& w) const {
  w.u8(interval_form ? 1 : 0);
  if (interval_form) {
    interval.write(w);
  } else {
    flat.write(w);
  }
}

NonmembershipEvidence NonmembershipEvidence::read(ByteReader& r) {
  NonmembershipEvidence e;
  e.interval_form = r.u8() != 0;
  if (e.interval_form) {
    e.interval = IntervalNonmembershipProof::read(r);
  } else {
    e.flat = NonmembershipWitness::read(r);
  }
  return e;
}

std::size_t NonmembershipEvidence::encoded_size() const {
  ByteWriter w;
  write(w);
  return w.size();
}

}  // namespace vc
