// Decoder robustness of the one epoch-record format: every byte of every
// section of a tiered full record and of a layered record (patch blobs, a
// removed term) is flipped in turn and the file re-sealed — CRCs, offsets,
// and for the config section the param fingerprint too — so the damage gets
// past the checksums and reaches the decoders.  Opening the store and then
// find() on every term must either succeed or throw a vc::Error subclass:
// never crash, never a foreign exception.  The typed-error cases pin the
// format's own rules: a full record cannot hold a patch, a layered record
// cannot carry a witness tier, and older versions and magics are refused.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "store/codec_detail.hpp"
#include "store/epoch_store.hpp"
#include "test_fixtures.hpp"
#include "text/synth.hpp"
#include "text/tokenizer.hpp"
#include "vindex/witness_tier.hpp"

namespace vc {
namespace {

namespace fs = std::filesystem;

Bytes read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void write_file(const fs::path& p, const Bytes& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// A record's sections, decoded into owned payloads so they can be edited
// and re-sealed.
struct Sections {
  store::StoreFileInfo info;
  std::vector<store::SectionId> ids;
  std::vector<Bytes> payloads;
};

Sections split(const fs::path& file) {
  store::MappedFile mapped(file);
  Sections out;
  out.info = store::inspect_file(mapped);
  for (const store::SectionInfo& s : out.info.sections) {
    out.ids.push_back(s.id);
    auto bytes = mapped.bytes().subspan(s.offset, s.size);
    out.payloads.emplace_back(bytes.begin(), bytes.end());
  }
  return out;
}

// Lays `s` out again through the codec's own encoder: every CRC and offset
// follows, and the fingerprint is re-derived from the config section.
Bytes seal(const Sections& s, std::uint32_t format_version = store::kFormatVersion) {
  std::vector<store::detail::SectionPayload> payloads;
  Digest fingerprint = s.info.param_fingerprint;
  for (std::size_t i = 0; i < s.ids.size(); ++i) {
    payloads.push_back({s.ids[i], &s.payloads[i]});
    if (s.ids[i] == store::SectionId::kConfig) fingerprint = Sha256::hash(s.payloads[i]);
  }
  return store::detail::encode_sections(format_version, s.info.epoch, s.info.shard_count,
                                        fingerprint, payloads);
}

std::size_t index_of(const Sections& s, store::SectionId id) {
  for (std::size_t i = 0; i < s.ids.size(); ++i) {
    if (s.ids[i] == id) return i;
  }
  ADD_FAILURE() << "no section " << store::section_name(id);
  return 0;
}

class RecordDecodeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthSpec spec{.name = "rd", .num_docs = 24, .min_doc_words = 12,
                   .max_doc_words = 30, .vocab_size = 90, .zipf_s = 0.9, .seed = 19};
    bed_ = new testbed::TestBed(spec, testbed::small_config(128, "record-decode"),
                                /*key_seed=*/907, /*threads=*/2);
    root_ = new fs::path(fs::path(::testing::TempDir()) /
                         ("vc_record_decode." + std::to_string(::getpid())));
    fs::remove_all(*root_);

    // A document whose only other word is hot: removing it later removes
    // its unique term.
    auto words = bed_->frequent_terms(4);
    const std::uint32_t victim = spec.num_docs;
    std::vector<Document> docs = {Document{victim, "victim", words[0] + " zzdecodevictim"}};
    bed_->vidx.add_documents(docs, bed_->owner_ctx, bed_->owner_key);

    // Base: a tiered full record over two hot terms.
    store::EpochStore store(*root_);
    SnapshotPtr snap = bed_->vidx.snapshot();
    bed_->owner_ctx.set_pool(&bed_->pool);
    TierPolicy policy;
    policy.hot_terms = {normalize_term(words[2]), normalize_term(words[3])};
    TierBuildResult tier = build_witness_tier(*snap, bed_->owner_ctx, policy);
    store::TierArtifacts arts{tier.tier, std::move(tier.fixed_base)};
    store.publish(*snap, /*shard_count=*/1, &arts);
    bed_->vidx.note_full_publish();

    // Layered: patches of the terms the base held, one removed term.
    std::vector<Document> more = {Document{victim + 1, "more", words[0] + " " + words[1]}};
    bed_->vidx.add_documents(more, bed_->owner_ctx, bed_->owner_key);
    U64Set gone = {victim};
    bed_->vidx.remove_documents(gone, bed_->owner_ctx, bed_->owner_key);
    auto delta = bed_->vidx.publish_delta();
    ASSERT_TRUE(delta.has_value());
    ASSERT_FALSE(delta->bases.empty());
    ASSERT_EQ(delta->removed, std::vector<std::string>{normalize_term("zzdecodevictim")});
    store.publish_delta(*delta, /*shard_count=*/1);
    head_ = delta->epoch;
    base_ = delta->base_epoch;
  }
  static void TearDownTestSuite() {
    fs::remove_all(*root_);
    delete root_;
    delete bed_;
    root_ = nullptr;
    bed_ = nullptr;
  }

  // A scratch copy of the store whose `file` (snapshot.vcs of the base or
  // delta.vcd of the head) the caller then overwrites.
  static store::EpochStore scratch_store(const std::string& tag) {
    const fs::path dst = *root_ / ("scratch-" + tag);
    fs::remove_all(dst);
    fs::create_directories(dst);
    for (const auto& entry : fs::directory_iterator(*root_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("scratch-", 0) == 0) continue;
      fs::copy(entry.path(), dst / name, fs::copy_options::recursive);
    }
    return store::EpochStore(dst);
  }

  // Opens CURRENT and touches everything lazy: every entry, every tiered
  // witness table, every prime representative.
  static void open_and_touch(const store::EpochStore& store) {
    store::OpenedEpoch opened = store.open_current();
    for (const auto& [term, unused] : opened.snapshot->entries()) {
      (void)opened.snapshot->find(term);
    }
    if (opened.tier != nullptr) {
      for (const std::string& term : opened.tier->terms()) (void)opened.tier->find(term);
    }
    (void)opened.snapshot->tuple_primes().merged_entries();
    (void)opened.snapshot->doc_primes().merged_entries();
  }

  // Flips bytes of every section payload of `file` — each of the first 64,
  // where the counts, tags and first blob sit, then ~192 more strided
  // across the rest so the run stays in seconds — and requires each damaged
  // store to open or fail with a vc::Error.
  static void flip_every_section(const store::EpochStore& store, const fs::path& file) {
    const Bytes pristine = read_file(file);
    const Sections sections = split(file);
    std::size_t runs = 0;
    for (std::size_t sec = 0; sec < sections.ids.size(); ++sec) {
      const std::size_t size = sections.payloads[sec].size();
      const std::size_t stride = std::max<std::size_t>(1, size / 192);
      for (std::size_t at = 0; at < size; at += at < 64 ? 1 : stride) {
        Sections damaged = sections;
        damaged.payloads[sec][at] ^= static_cast<std::uint8_t>(1u << (at % 8));
        write_file(file, seal(damaged));
        try {
          open_and_touch(store);
        } catch (const Error&) {
        } catch (const std::exception& e) {
          ADD_FAILURE() << store::section_name(sections.ids[sec]) << " byte " << at
                        << ": foreign exception " << e.what();
        }
        ++runs;
      }
    }
    write_file(file, pristine);
    EXPECT_NO_THROW(open_and_touch(store));
    EXPECT_GT(runs, sections.ids.size());
  }

  static testbed::TestBed* bed_;
  static fs::path* root_;
  static std::uint64_t head_;
  static std::uint64_t base_;
};

testbed::TestBed* RecordDecodeTest::bed_ = nullptr;
fs::path* RecordDecodeTest::root_ = nullptr;
std::uint64_t RecordDecodeTest::head_ = 0;
std::uint64_t RecordDecodeTest::base_ = 0;

TEST_F(RecordDecodeTest, FlippedFullRecordBytesAreTypedErrorsOrServe) {
  store::EpochStore store = scratch_store("full");
  ASSERT_GT(split(store.epoch_file(base_)).ids.size(), 8u);  // tiered
  flip_every_section(store, store.epoch_file(base_));
}

TEST_F(RecordDecodeTest, FlippedLayeredRecordBytesAreTypedErrorsOrServe) {
  store::EpochStore store = scratch_store("layered");
  flip_every_section(store, store.delta_file(head_));
}

// The first blob of a full record re-marked as a patch: there is nothing
// below a full record to patch against.
TEST_F(RecordDecodeTest, FullRecordWithPatchBlobIsCorrupt) {
  store::EpochStore store = scratch_store("full-patch");
  const fs::path file = store.epoch_file(base_);
  Sections s = split(file);
  s.payloads[index_of(s, store::SectionId::kEntries)][0] = 1;  // EntryKind::kPatch
  write_file(file, seal(s));
  store::OpenedEpoch opened = store::open_snapshot(std::make_shared<const store::MappedFile>(file));
  const std::string& first = opened.snapshot->entries().begin()->first;
  try {
    (void)opened.snapshot->find(first);
    ADD_FAILURE() << "a full record served a patch";
  } catch (const store::StoreCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("full record holds a patch"), std::string::npos)
        << e.what();
  }
}

// The witness tier rides only on full records.
TEST_F(RecordDecodeTest, LayeredRecordWithTierSectionsIsCorrupt) {
  store::EpochStore store = scratch_store("layered-tier");
  const Sections full = split(store.epoch_file(base_));
  Sections layered = split(store.delta_file(head_));
  for (std::size_t i = 0; i < full.ids.size(); ++i) {
    if (!store::is_tier_section(full.ids[i])) continue;
    layered.ids.push_back(full.ids[i]);
    layered.payloads.push_back(full.payloads[i]);
  }
  write_file(store.delta_file(head_), seal(layered));
  try {
    (void)store.open_current();
    ADD_FAILURE() << "a layered record carried a witness tier";
  } catch (const store::StoreCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("layered record carries witness-tier sections"),
              std::string::npos)
        << e.what();
  }
}

// A stored interval's prime counter above u32: the first full blob's first
// tuple interval gets a 5-byte counter varint (2^32) and the term directory
// is re-laid around the longer blob.  Parsing the entry is a typed error.
TEST_F(RecordDecodeTest, OversizeIntervalCounterIsTypedError) {
  store::EpochStore store = scratch_store("ctr");
  const fs::path file = store.epoch_file(base_);
  Sections s = split(file);
  const std::size_t dir_at = index_of(s, store::SectionId::kTermDirectory);
  const std::size_t entries_at = index_of(s, store::SectionId::kEntries);
  struct Loc {
    std::string term;
    std::uint64_t offset, size;
  };
  std::vector<Loc> dir;
  {
    ByteReader r(s.payloads[dir_at]);
    const std::uint64_t n = r.varint();
    for (std::uint64_t i = 0; i < n; ++i) {
      Loc loc;
      loc.term = r.str();
      loc.offset = r.varint();
      loc.size = r.varint();
      dir.push_back(std::move(loc));
    }
  }
  ASSERT_FALSE(dir.empty());
  ASSERT_EQ(dir[0].offset, 0u);
  Bytes& entries = s.payloads[entries_at];
  // Walk the first blob to its first tuple interval's counter.
  ByteReader r(std::span<const std::uint8_t>(entries).subspan(0, dir[0].size));
  ASSERT_EQ(r.u8(), 0);                     // EntryKind::kFull
  (void)r.raw(8 * r.varint());              // postings
  (void)Bigint::read(r);                    // tuple root
  ASSERT_GE(r.varint(), 1u);                // interval count
  (void)r.u64();                            // lo
  (void)r.u64();                            // hi
  (void)Bigint::read(r);                    // b
  const std::uint64_t members = r.varint();
  for (std::uint64_t i = 0; i < members; ++i) (void)r.varint();
  const std::size_t ctr_at = dir[0].size - r.remaining();
  (void)r.varint();
  const std::size_t ctr_len = dir[0].size - r.remaining() - ctr_at;
  ByteWriter big;
  big.varint(std::uint64_t{1} << 32);
  const std::size_t grow = big.size() - ctr_len;
  entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(ctr_at),
                entries.begin() + static_cast<std::ptrdiff_t>(ctr_at + ctr_len));
  entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(ctr_at), big.data().begin(),
                 big.data().end());
  ByteWriter relaid;
  relaid.varint(dir.size());
  for (std::size_t i = 0; i < dir.size(); ++i) {
    relaid.str(dir[i].term);
    relaid.varint(i == 0 ? 0 : dir[i].offset + grow);
    relaid.varint(i == 0 ? dir[i].size + grow : dir[i].size);
  }
  s.payloads[dir_at] = std::move(relaid).take();
  write_file(file, seal(s));

  store::OpenedEpoch opened =
      store::open_snapshot(std::make_shared<const store::MappedFile>(file));
  try {
    (void)opened.snapshot->find(dir[0].term);
    ADD_FAILURE() << "an interval with a 33-bit prime counter parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("interval prime counter exceeds 32 bits"),
              std::string::npos)
        << e.what();
  }
}

// Format version 1 stored each interval's middle-layer prime where version
// 2 stores its counter; a version-1 record is refused, not misparsed.
TEST_F(RecordDecodeTest, FormatVersion1RecordIsCorrupt) {
  store::EpochStore store = scratch_store("v1");
  write_file(store.epoch_file(base_), seal(split(store.epoch_file(base_)), 1));
  try {
    (void)store.open_current();
    ADD_FAILURE() << "a version-1 record opened";
  } catch (const store::StoreCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 1"), std::string::npos)
        << e.what();
  }
}

// Format version 3 was the separate delta codec; it is no longer read.
TEST_F(RecordDecodeTest, FormatVersion3RecordIsCorrupt) {
  store::EpochStore store = scratch_store("v3");
  write_file(store.delta_file(head_), seal(split(store.delta_file(head_)), 3));
  try {
    (void)store.open_current();
    ADD_FAILURE() << "a version-3 record opened";
  } catch (const store::StoreCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 3"), std::string::npos)
        << e.what();
  }
}

// Stores written before the one record layout carry the VCEPOCH3 magic.
TEST_F(RecordDecodeTest, PreviousMagicIsCorrupt) {
  store::EpochStore store = scratch_store("vcepoch3");
  for (const fs::path& file : {store.epoch_file(base_), store.delta_file(head_)}) {
    Bytes raw = read_file(file);
    ASSERT_EQ(raw[7], '4');
    raw[7] = '3';
    write_file(file, raw);
    try {
      (void)store.open_current();
      ADD_FAILURE() << file << " opened under the VCEPOCH3 magic";
    } catch (const store::StoreCorruptError& e) {
      EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos) << e.what();
    }
    raw[7] = '4';
    write_file(file, raw);
  }
}

}  // namespace
}  // namespace vc
