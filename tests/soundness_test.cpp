// Adversarial soundness gate: a malicious cloud forges semantically lying
// proofs across every forgery class, every query of the §V-A 24-query
// workload, and multiple PRNG seeds — and the verifier must kill every one
// of them while accepting the honest control proof for every query.  Any
// accepted forgery fails the suite and prints a replayable reproducer line
// (query, class, scheme, seed, mutation trace).
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>

#include "advtest/kill_rate.hpp"
#include "data/workload.hpp"
#include "support/errors.hpp"
#include "test_fixtures.hpp"
#include "vindex/index_builder.hpp"

namespace vc {
namespace {

using advtest::ForgeryClass;
using advtest::KillRateConfig;
using advtest::KillRateReport;

// Seeds come from the environment so a reproducer can be replayed with
// exactly one seed: VC_SOUNDNESS_SEEDS="7" ctest -L soundness ...
std::vector<std::uint64_t> seeds_from_env() {
  const char* env = std::getenv("VC_SOUNDNESS_SEEDS");
  if (env == nullptr || *env == '\0') return {1, 2, 3};
  std::vector<std::uint64_t> seeds;
  std::stringstream ss(env);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) seeds.push_back(std::stoull(item));
  }
  return seeds.empty() ? std::vector<std::uint64_t>{1, 2, 3} : seeds;
}

class SoundnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthSpec spec{.name = "snd", .num_docs = 100, .min_doc_words = 30,
                   .max_doc_words = 90, .vocab_size = 400, .zipf_s = 0.9, .seed = 31};
    bed_ = new testbed::TestBed(spec, testbed::small_config(), /*key_seed=*/701);

    // Freeze a pre-update snapshot, then apply an owner update that touches
    // every term: the new document contains the whole vocabulary plus one
    // brand-new word.  Every attestation changes, so a lazy cloud replaying
    // any pre-update signed state commits the kStaleAttestation forgery.
    // The update clones every entry it touches (copy-on-write), so the
    // frozen snapshot keeps serving the pre-update state.
    SnapshotPtr stale = bed_->vidx.snapshot();
    std::string update_text = "zzstaleterm";
    for (std::uint32_t rank = 0; rank < spec.vocab_size; ++rank) {
      update_text += " " + synth_word(spec, rank);
    }
    bed_->vidx.add_documents({Document{1000, "update", update_text}}, bed_->owner_ctx,
                             bed_->owner_key);

    SnapshotPtr live = bed_->vidx.snapshot();
    cloud_ = new CloudService(live, bed_->pub_ctx, bed_->cloud_key,
                              bed_->owner_key.verify_key(), &bed_->pool);
    mal_ = new advtest::MaliciousCloud(*cloud_, live, bed_->pub_ctx, std::move(stale));
    verifier_ = new ResultVerifier(bed_->owner_verifier());
    // The owner just pushed this epoch; pinning it is exactly the freshness
    // discipline docs/SOUNDNESS.md describes (and what kEpochMixing needs).
    verifier_->pin_epoch(live->epoch());

    for (const WorkloadQuery& wq : paper_query_workload(bed_->spec)) {
      queries_.push_back(SignedQuery{wq.query, bed_->owner_key.sign(wq.query.encode())});
    }
    // The boolean/top-k mix rides the same gate: OR, NOT, nesting, top-k
    // cutoffs and unknown keywords, so the boolean forgery classes (and the
    // legacy classes' boolean arms) face real queries.
    std::uint64_t next_id = queries_.size() + 1;
    for (const BooleanWorkloadQuery& bq : boolean_query_workload(bed_->spec)) {
      Query q;
      q.id = next_id++;
      BoolNode expr = parse_query(bq.text);
      q.keywords = leaf_terms_in_order(expr);
      q.top_k = bq.top_k;
      q.expr = std::move(expr);
      queries_.push_back(SignedQuery{q, bed_->owner_key.sign(q.encode())});
    }
  }
  static void TearDownTestSuite() {
    delete verifier_;
    delete mal_;
    delete cloud_;
    delete bed_;
    queries_.clear();
  }

  // The report is computed once and shared: the gate, the per-class
  // coverage check and the honest-control check all look at the same run.
  static const KillRateReport& report() {
    static KillRateReport rep = [] {
      KillRateConfig cfg;
      cfg.seeds = seeds_from_env();
      return run_kill_rate(*mal_, *verifier_, queries_, cfg);
    }();
    return rep;
  }

  static testbed::TestBed* bed_;
  static CloudService* cloud_;
  static advtest::MaliciousCloud* mal_;
  static ResultVerifier* verifier_;
  static std::vector<SignedQuery> queries_;
};

testbed::TestBed* SoundnessTest::bed_ = nullptr;
CloudService* SoundnessTest::cloud_ = nullptr;
advtest::MaliciousCloud* SoundnessTest::mal_ = nullptr;
ResultVerifier* SoundnessTest::verifier_ = nullptr;
std::vector<SignedQuery> SoundnessTest::queries_;

TEST_F(SoundnessTest, WorkloadHasPaperShape) {
  // 24 paper-mix queries plus the eight-query boolean/top-k mix.
  ASSERT_EQ(queries_.size(), 32u);
  for (const auto& q : queries_) {
    EXPECT_TRUE(q.verify(bed_->owner_key.verify_key()));
  }
}

TEST_F(SoundnessTest, VerifierKillsEveryForgery) {
  const KillRateReport& rep = report();
  std::cout << "[soundness] forged=" << rep.forged << " killed=" << rep.killed
            << " refused=" << rep.refused << " not_applicable=" << rep.not_applicable
            << " honest=" << rep.honest_accepted << "/" << rep.honest_total << "\n";
  for (const std::string& line : rep.reproducers) {
    ADD_FAILURE() << "ACCEPTED FORGERY — replay with: " << line;
  }
  EXPECT_EQ(rep.accepted, 0u);
  EXPECT_EQ(rep.killed, rep.forged);
  EXPECT_TRUE(rep.sound());
  // The acceptance floor: a meaningful gate needs real forgery volume —
  // per seed, so single-seed runs (the TSan CI leg) keep a real floor too.
  EXPECT_GE(rep.forged, 195u * seeds_from_env().size());
}

TEST_F(SoundnessTest, HonestControlsAllAccepted) {
  const KillRateReport& rep = report();
  EXPECT_GT(rep.honest_total, 0u);
  EXPECT_EQ(rep.honest_accepted, rep.honest_total);
}

TEST_F(SoundnessTest, EveryForgeryClassProducesForgedProofs) {
  // All sixteen classes must contribute actual forged (not merely refused)
  // proofs somewhere in the workload, and each class's kill rate is 100%.
  std::map<ForgeryClass, std::size_t> forged_per_class, killed_per_class;
  for (const auto& rec : report().attempts) {
    if (rec.outcome != advtest::ForgeOutcome::kForged) continue;
    ++forged_per_class[rec.cls];
    if (rec.rejected) ++killed_per_class[rec.cls];
  }
  for (std::size_t ci = 0; ci < advtest::kForgeryClassCount; ++ci) {
    const auto cls = static_cast<ForgeryClass>(ci);
    EXPECT_GT(forged_per_class[cls], 0u) << advtest::forgery_class_name(cls);
    EXPECT_EQ(killed_per_class[cls], forged_per_class[cls])
        << advtest::forgery_class_name(cls);
  }
}

TEST_F(SoundnessTest, DescriptorCounterCoversEveryVariant) {
  // The three counter lies (composite candidate, non-minimal prime,
  // another interval's counter) each reach the verifier and each dies.
  std::map<std::string, std::size_t> forged, killed;
  for (const auto& rec : report().attempts) {
    if (rec.cls != ForgeryClass::kDescriptorCounter ||
        rec.outcome != advtest::ForgeOutcome::kForged) {
      continue;
    }
    ASSERT_EQ(rec.trace.size(), 1u);
    ++forged[rec.trace[0].name];
    if (rec.rejected) ++killed[rec.trace[0].name];
  }
  for (const char* variant :
       {"composite_mid_counter", "nonminimal_mid_counter", "foreign_mid_counter"}) {
    EXPECT_GT(forged[variant], 0u) << variant;
    EXPECT_EQ(killed[variant], forged[variant]) << variant;
  }
}

TEST_F(SoundnessTest, ForgeriesAreDeterministicallyReplayable) {
  // The same (query, class, scheme, seed) must reproduce the same signed
  // bytes and the same mutation trace — that is what makes a reproducer
  // line from a failed gate actionable.
  for (ForgeryClass cls : {ForgeryClass::kDropResultDoc, ForgeryClass::kStructuredMutation,
                           ForgeryClass::kWitnessSubstitution}) {
    auto a = mal_->forge(queries_[2], cls, SchemeKind::kHybrid, 77);
    auto b = mal_->forge(queries_[2], cls, SchemeKind::kHybrid, 77);
    ASSERT_EQ(a.outcome, b.outcome) << advtest::forgery_class_name(cls);
    if (a.outcome != advtest::ForgeOutcome::kForged) continue;
    EXPECT_EQ(a.response.payload_bytes(), b.response.payload_bytes());
    EXPECT_EQ(advtest::format_trace(a.trace), advtest::format_trace(b.trace));
    // A different seed must (for randomized classes) be free to diverge;
    // at minimum it must still be killed — covered by the main gate.
  }
}

TEST_F(SoundnessTest, ReproducerLineNamesTheAttempt) {
  advtest::AttemptRecord rec;
  rec.query_id = 7;
  rec.cls = ForgeryClass::kEncodingSwap;
  rec.scheme = SchemeKind::kHybrid;
  rec.seed = 42;
  rec.trace.push_back({"relabel_scheme", 3, 0});
  std::string line = advtest::reproducer_line(rec);
  EXPECT_NE(line.find("query_id=7"), std::string::npos);
  EXPECT_NE(line.find("encoding_swap"), std::string::npos);
  EXPECT_NE(line.find("seed=42"), std::string::npos);
  EXPECT_NE(line.find("relabel_scheme(3,0)"), std::string::npos);
}

TEST_F(SoundnessTest, ForgedResponsesAreWellFormedAndCloudSigned) {
  // Semantic forgeries must survive the parser and the cloud-signature
  // check — they die on the *scheme's* checks, not on plumbing.  (Byte
  // corruption is corruption_test's job.)
  auto forged = mal_->forge(queries_[3], ForgeryClass::kDropResultDoc,
                            SchemeKind::kIntervalAccumulator, 5);
  ASSERT_EQ(forged.outcome, advtest::ForgeOutcome::kForged);
  ByteWriter w;
  forged.response.write(w);
  ByteReader r(w.data());
  SearchResponse round = SearchResponse::read(r);
  r.expect_done();
  EXPECT_TRUE(cloud_->verify_key().verify(round.payload_bytes(), round.cloud_sig));
  EXPECT_THROW(verifier_->verify(round), VerifyError);
}

}  // namespace
}  // namespace vc
