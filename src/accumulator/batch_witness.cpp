#include "accumulator/batch_witness.hpp"

#include <utility>

#include "support/threadpool.hpp"

namespace vc {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// Range-product tree over the witness exponents.  With the trapdoor every
// product lives mod φ(n) (short numbers, owner-side build); without it the
// genuine integer products are kept — those are RootFactor's exponents.
struct Node {
  std::size_t begin, end;  // exponent index range [begin, end)
  std::size_t left = kNone, right = kNone;
  Bigint prod;  // Π exps[begin..end), reduced mod φ(n) when held
  Bigint base;  // filled during the top-down witness sweep
};

struct Tree {
  std::vector<Node> nodes;

  std::size_t build(std::span<const Bigint> exps, std::size_t begin, std::size_t end,
                    const Bigint* phi) {
    std::size_t id = nodes.size();
    nodes.push_back(Node{.begin = begin, .end = end});
    if (end - begin == 1) {
      nodes[id].prod = phi != nullptr ? Bigint::mod(exps[begin], *phi) : exps[begin];
      return id;
    }
    std::size_t mid = begin + (end - begin) / 2;
    std::size_t l = build(exps, begin, mid, phi);
    std::size_t r = build(exps, mid, end, phi);
    nodes[id].left = l;
    nodes[id].right = r;
    Bigint p = nodes[l].prod * nodes[r].prod;
    nodes[id].prod = phi != nullptr ? Bigint::mod(p, *phi) : std::move(p);
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
  const Bigint* phi = power.has_trapdoor() ? &power.phi() : nullptr;
  ThreadPool* pool = ctx.pool();

  Tree t;
  t.nodes.reserve(2 * exps.size());
  std::size_t root = t.build(exps, 0, exps.size(), phi);
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
    if (pool != nullptr && level.size() > 1) {
      pool->parallel_for(0, level.size(), step);
    } else {
      for (std::size_t i = 0; i < level.size(); ++i) step(i);
    }
    level.clear();
    for (std::size_t id : next) {
      if (id != kNone) level.push_back(id);
    }
  }
  return out;
}

}  // namespace

std::vector<Bigint> batch_membership_witnesses(const AccumulatorContext& ctx,
                                               std::span<const Bigint> primes) {
  return root_factor(ctx, primes);
}

}  // namespace vc
