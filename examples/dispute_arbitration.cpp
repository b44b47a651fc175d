// Dispute arbitration scenario (§III-F).
//
// Three acts:
//   1. an honest exchange — the arbiter dismisses the owner's (false)
//      accusation, so an owner cannot frame an honest cloud;
//   2. a cloud that drops a result to save work — the owner detects it and
//      the arbiter, holding only public parameters, rules against the cloud;
//   3. a forged query — the cloud disproves the accusation because the
//      query was never signed by the owner.
//
//   ./dispute_arbitration
#include <cstdio>

#include "data/testbed.hpp"
#include "support/errors.hpp"
#include "protocol/arbiter.hpp"
#include "protocol/cloud.hpp"
#include "protocol/owner.hpp"

using namespace vc;

int main() {
  TestbedOptions opts;
  opts.corpus = newsgroup_profile(150, /*seed=*/7);
  Testbed bed(opts);
  std::printf("corpus: %zu docs, %zu terms\n", bed.corpus().size(),
              bed.vindex().term_count());

  CloudService cloud(bed.vindex().snapshot(), bed.public_ctx(), bed.cloud_key(),
                     bed.owner_key().verify_key(), &bed.pool());
  DataOwner owner(bed.owner_ctx(), bed.owner_key(), bed.cloud_key().verify_key(),
                  bed.options().index);
  // The arbiter has NO trapdoor — strictly public verification.
  ThirdPartyArbiter arbiter(bed.public_ctx(), bed.owner_key().verify_key(),
                            bed.cloud_key().verify_key(), bed.options().index);

  std::string w0 = synth_word(opts.corpus, 15), w1 = synth_word(opts.corpus, 30);

  // --- Act 1: false accusation against an honest cloud ----------------------
  {
    SignedQuery q = owner.issue_query({w0, w1});
    SearchResponse resp = cloud.handle(q);
    owner.receive_response(resp);  // verifies fine
    Ruling ruling = arbiter.arbitrate(owner.transcript_for(q.query.id));
    std::printf("act 1 (honest cloud, owner accuses anyway): ruling = %s\n",
                ruling_name(ruling));
  }

  // --- Act 2: the cloud drops a result --------------------------------------
  {
    SignedQuery q = owner.issue_query({w0, w1});
    SearchResponse resp = cloud.handle(q);
    // The cloud hides its last hit to save work and signs the partial
    // answer with its own key, as a real cheating operator would.
    auto& result = std::get<MultiKeywordResponse>(resp.body).result;
    if (!result.docs.empty()) {
      std::uint64_t hidden = result.docs.back();
      result.docs.pop_back();
      for (auto& postings : result.postings) {
        if (!postings.empty() && postings.back().doc_id == hidden) postings.pop_back();
      }
    }
    resp.cloud_sig = bed.cloud_key().sign(resp.payload_bytes());
    try {
      owner.receive_response(resp);
      std::printf("act 2: ERROR — tampering went unnoticed!\n");
      return 1;
    } catch (const VerifyError& e) {
      std::printf("act 2 (cloud drops a hit): owner detects \"%s\"\n", e.what());
    }
    Ruling ruling = arbiter.arbitrate(owner.transcript_for(q.query.id));
    std::printf("act 2: arbiter ruling = %s (%s)\n", ruling_name(ruling),
                arbiter.last_reason().c_str());
  }

  // --- Act 3: the owner fabricates a query ----------------------------------
  {
    SignedQuery q = owner.issue_query({w0});
    SearchResponse resp = cloud.handle(q);
    Transcript forged{q, resp};
    forged.query.query.keywords[0] = "fabricated";  // signature is now stale
    Ruling ruling = arbiter.arbitrate(forged);
    std::printf("act 3 (owner forges the query): ruling = %s — the cloud is safe\n",
                ruling_name(ruling));
  }
  return 0;
}
