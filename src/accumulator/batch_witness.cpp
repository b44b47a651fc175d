#include "accumulator/batch_witness.hpp"

#include <utility>

#include "support/threadpool.hpp"

namespace vc {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// Range-product tree over the witness exponents: genuine integer
// products, RootFactor's exponents.
struct Node {
  std::size_t begin, end;  // exponent index range [begin, end)
  std::size_t left = kNone, right = kNone;
  Bigint prod;  // Π exps[begin..end)
  Bigint base;  // filled during the top-down witness sweep
};

struct Tree {
  std::vector<Node> nodes;

  std::size_t build(std::span<const Bigint> exps, std::size_t begin, std::size_t end) {
    std::size_t id = nodes.size();
    nodes.push_back(Node{.begin = begin, .end = end});
    if (end - begin == 1) {
      nodes[id].prod = exps[begin];
      return id;
    }
    std::size_t mid = begin + (end - begin) / 2;
    std::size_t l = build(exps, begin, mid);
    std::size_t r = build(exps, mid, end);
    nodes[id].left = l;
    nodes[id].right = r;
    nodes[id].prod = nodes[l].prod * nodes[r].prod;
    return id;
  }
};

// Runs RootFactor over `exps`: out[i] = g^(Π_{j≠i} exps[j]) mod n.  The
// top-down sweep processes one tree level at a time; sibling bases within a
// level are independent, so each level fans out over the pool.
std::vector<Bigint> root_factor(const AccumulatorContext& ctx, std::span<const Bigint> exps) {
  std::vector<Bigint> out(exps.size());
  if (exps.empty()) return out;
  const PowerContext& power = ctx.power();

  Tree t;
  t.nodes.reserve(2 * exps.size());
  std::size_t root = t.build(exps, 0, exps.size());
  // Matches membership_witness(ctx, {}) for a singleton set: g reduced, no
  // exponentiation.
  t.nodes[root].base = Bigint::mod(ctx.g(), ctx.n());

  std::vector<std::size_t> level = {root};
  while (!level.empty()) {
    std::vector<std::size_t> next(2 * level.size(), kNone);
    auto step = [&](std::size_t i) {
      Node& nd = t.nodes[level[i]];
      if (nd.left == kNone) {
        out[nd.begin] = std::move(nd.base);
        return;
      }
      Node& l = t.nodes[nd.left];
      Node& r = t.nodes[nd.right];
      l.base = power.pow(nd.base, r.prod);
      r.base = power.pow(nd.base, l.prod);
      nd.base = Bigint();  // release, no longer needed
      next[2 * i] = nd.left;
      next[2 * i + 1] = nd.right;
    };
    for_each_index(ctx.pool(), level.size(), step);
    level.clear();
    for (std::size_t id : next) {
      if (id != kNone) level.push_back(id);
    }
  }
  return out;
}

// Owner side: out[i] = g^(Π_{j≠i} exps[j]) from one prefix/suffix sweep
// whose partial products live mod φ(n) (short numbers), then one short
// exponentiation per element, fanned over the pool.
std::vector<Bigint> prefix_suffix(const AccumulatorContext& ctx, std::span<const Bigint> exps) {
  const PowerContext& power = ctx.power();
  const Bigint& phi = power.phi();
  const std::size_t k = exps.size();
  std::vector<Bigint> suffix(k + 1, Bigint(1));
  for (std::size_t i = k; i-- > 0;) suffix[i] = Bigint::mod(suffix[i + 1] * exps[i], phi);
  std::vector<Bigint> out(k);
  Bigint prefix(1);
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = Bigint::mod(prefix * suffix[i + 1], phi);
    prefix = Bigint::mod(prefix * exps[i], phi);
  }
  for_each_index(ctx.pool(), k, [&](std::size_t i) { out[i] = power.pow(ctx.g(), out[i]); });
  return out;
}

}  // namespace

std::vector<Bigint> batch_membership_witnesses(const AccumulatorContext& ctx,
                                               std::span<const Bigint> primes) {
  if (ctx.power().has_trapdoor()) return prefix_suffix(ctx, primes);
  return root_factor(ctx, primes);
}

}  // namespace vc
