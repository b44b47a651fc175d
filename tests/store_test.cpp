// Persistent epoch store: round-trip fidelity, crash-safe publication, and
// rejection of every corruption class with its own error type.
//
// The load-bearing property is byte identity: a snapshot serialized to
// disk, reopened through mmap and served must produce responses whose
// canonical encodings equal the in-memory snapshot's bit for bit — that is
// what lets the CI restart gate diff proofs across a SIGKILL.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "store/crc32.hpp"
#include "store/epoch_store.hpp"
#include "test_fixtures.hpp"
#include "text/stemmer.hpp"
#include "text/synth.hpp"

namespace vc {
namespace {

namespace fs = std::filesystem;

Bytes encode_response(const SearchResponse& resp) {
  ByteWriter w;
  resp.write(w);
  return std::move(w).take();
}

void flip_byte(const fs::path& file, std::size_t offset) {
  std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x01);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

Bytes read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void write_file(const fs::path& p, const Bytes& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t load_le(const Bytes& b, std::size_t offset, std::size_t width) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + offset, width);  // little-endian host, as the store
  return v;
}

void store_le(Bytes& b, std::size_t offset, std::uint64_t v, std::size_t width) {
  std::memcpy(b.data() + offset, &v, width);
}

// Header field offsets (format.hpp): section count, declared file size and
// the section-table CRC.
constexpr std::size_t kSectionCountOffset = 28;
constexpr std::size_t kFileBytesOffset = 64;
constexpr std::size_t kTableCrcOffset = 72;

// Replaces one section's payload and re-lays the file out — offsets,
// sizes, per-section CRCs, the table CRC and the declared file size all
// follow — so the result passes every checksum.  That is what a forger
// (rather than a torn write) hands the decoder: CRCs are not authentication.
Bytes replace_section(const Bytes& file, store::SectionId id, const Bytes& payload) {
  const std::size_t count = load_le(file, kSectionCountOffset, 4);
  std::uint64_t offset = store::kHeaderBytes + count * store::kSectionEntryBytes;
  ByteWriter table;
  Bytes body;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t entry = store::kHeaderBytes + i * store::kSectionEntryBytes;
    const auto sid = static_cast<std::uint32_t>(load_le(file, entry, 4));
    const std::uint64_t old_offset = load_le(file, entry + 8, 8);
    const std::uint64_t old_size = load_le(file, entry + 16, 8);
    Bytes bytes = sid == static_cast<std::uint32_t>(id)
                      ? payload
                      : Bytes(file.begin() + static_cast<std::ptrdiff_t>(old_offset),
                              file.begin() + static_cast<std::ptrdiff_t>(old_offset + old_size));
    table.u32(sid);
    table.u32(store::crc32(bytes));
    table.u64(offset);
    table.u64(bytes.size());
    table.u64(load_le(file, entry + 24, 8));
    offset += bytes.size();
    body.insert(body.end(), bytes.begin(), bytes.end());
  }
  Bytes out(file.begin(), file.begin() + store::kHeaderBytes);
  store_le(out, kFileBytesOffset, offset, 8);
  store_le(out, kTableCrcOffset, store::crc32(table.data()), 4);
  out.insert(out.end(), table.data().begin(), table.data().end());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

// A full record's meta section: base epoch 0, the max posting count, and
// the flag that the record carries its dictionary.
Bytes full_meta(std::uint64_t max_posting_count) {
  ByteWriter w;
  w.u64(0);
  w.u64(max_posting_count);
  w.u8(1);
  return std::move(w).take();
}

// A term directory of one entry: (name, offset, size).
Bytes one_term_directory(std::uint64_t offset, std::uint64_t size) {
  ByteWriter w;
  w.varint(1);
  w.str("a");
  w.varint(offset);
  w.varint(size);
  return std::move(w).take();
}

class StoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthSpec spec{.name = "st", .num_docs = 60, .min_doc_words = 25,
                   .max_doc_words = 60, .vocab_size = 250, .zipf_s = 0.9, .seed = 77};
    bed_ = new testbed::TestBed(spec, testbed::small_config(256, "store"),
                                /*key_seed=*/601, /*threads=*/2);
    // Per-process root: gtest_discover_tests runs every case as its own
    // ctest process, and parallel siblings must not wipe each other's store
    // (same fix as witness_tier_test's store_root()).
    root_ = new fs::path(fs::path(::testing::TempDir()) /
                         ("vc_store_test." + std::to_string(::getpid())));
    fs::remove_all(*root_);
    store::EpochStore store(*root_);
    // Pin the published epoch's state: one test mutates the shared builder,
    // and every other test must keep comparing against what went to disk.
    mem_snap_ = new SnapshotPtr(bed_->vidx.snapshot());
    prime_entries_ =
        new std::vector<std::pair<std::uint64_t, Bigint>>(bed_->vidx.tuple_primes().sorted_entries());
    store.publish(**mem_snap_, /*shard_count=*/2);
  }
  static void TearDownTestSuite() {
    fs::remove_all(*root_);
    delete prime_entries_;
    delete mem_snap_;
    delete root_;
    delete bed_;
    bed_ = nullptr;
    root_ = nullptr;
    mem_snap_ = nullptr;
    prime_entries_ = nullptr;
  }

  static fs::path current_file() {
    store::EpochStore store(*root_);
    return store.epoch_file(store.current_epoch().value());
  }

  // A byte-identical scratch copy of the published epoch to damage.
  static fs::path scratch_copy(const std::string& tag) {
    fs::path dst = *root_ / ("scratch-" + tag + ".vcs");
    fs::copy_file(current_file(), dst, fs::copy_options::overwrite_existing);
    return dst;
  }

  static store::OpenedEpoch open_file(const fs::path& p) {
    return store::open_snapshot(std::make_shared<const store::MappedFile>(p));
  }

  static testbed::TestBed* bed_;
  static fs::path* root_;
  static SnapshotPtr* mem_snap_;
  static std::vector<std::pair<std::uint64_t, Bigint>>* prime_entries_;
};

testbed::TestBed* StoreTest::bed_ = nullptr;
fs::path* StoreTest::root_ = nullptr;
SnapshotPtr* StoreTest::mem_snap_ = nullptr;
std::vector<std::pair<std::uint64_t, Bigint>>* StoreTest::prime_entries_ = nullptr;

TEST_F(StoreTest, RoundTripProofsAreByteIdentical) {
  SnapshotPtr mem = *mem_snap_;
  store::OpenedEpoch opened = store::EpochStore(*root_).open_current();
  ASSERT_NE(opened.snapshot, nullptr);
  EXPECT_EQ(opened.snapshot->epoch(), mem->epoch());
  EXPECT_EQ(opened.snapshot->term_count(), mem->term_count());
  EXPECT_EQ(opened.snapshot->max_posting_count(), mem->max_posting_count());
  EXPECT_EQ(opened.shard_count, 2u);

  SearchEngine mem_engine(mem, bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
  SearchEngine map_engine(opened.snapshot, bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
  ResultVerifier verifier = bed_->owner_verifier();

  auto words = bed_->frequent_terms(3);
  std::uint64_t id = 1;
  for (SchemeKind scheme : {SchemeKind::kHybrid, SchemeKind::kAccumulator,
                            SchemeKind::kBloom, SchemeKind::kIntervalAccumulator}) {
    Query q{.id = id++, .keywords = {words[0], words[1]}};
    SearchResponse from_mem = mem_engine.search(q, scheme);
    SearchResponse from_map = map_engine.search(q, scheme);
    EXPECT_NO_THROW(verifier.verify(from_map)) << scheme_name(scheme);
    EXPECT_EQ(encode_response(from_mem), encode_response(from_map))
        << scheme_name(scheme);
  }

  // Unknown keyword: the dictionary gap proof must survive the round trip too.
  Query unknown{.id = id, .keywords = {"zzzunindexedzzz"}};
  SearchResponse from_mem = mem_engine.search(unknown, SchemeKind::kHybrid);
  SearchResponse from_map = map_engine.search(unknown, SchemeKind::kHybrid);
  EXPECT_NO_THROW(verifier.verify(from_map));
  EXPECT_EQ(encode_response(from_mem), encode_response(from_map));
}

TEST_F(StoreTest, LazySnapshotMaterializesOnDemand) {
  store::OpenedEpoch opened = store::EpochStore(*root_).open_current();
  const IndexSnapshot& snap = *opened.snapshot;
  EXPECT_EQ(snap.find("zzznotthere"), nullptr);
  std::string term = porter_stem(bed_->frequent_terms(1)[0]);
  const IndexEntry* first = snap.find(term);
  ASSERT_NE(first, nullptr);
  // Second touch returns the cached materialization, not a fresh parse.
  EXPECT_EQ(snap.find(term), first);
  // The mapped entry equals the in-memory one where it matters.
  const IndexEntry* mem = (*mem_snap_)->find(term);
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(first->postings.size(), mem->postings.size());
  EXPECT_EQ(first->attestation.stmt.encode(), mem->attestation.stmt.encode());
}

TEST_F(StoreTest, MappedPrimeBackingServesWithoutRecompute) {
  store::OpenedEpoch opened = store::EpochStore(*root_).open_current();
  PrimeCache& map_primes = opened.snapshot->tuple_primes();
  const auto& entries = *prime_entries_;
  ASSERT_FALSE(entries.empty());
  std::uint64_t misses_before = map_primes.misses();
  // Spot-check across the key range, including both ends.
  for (std::size_t i : {std::size_t{0}, entries.size() / 2, entries.size() - 1}) {
    EXPECT_EQ(map_primes.get(entries[i].first), entries[i].second);
  }
  EXPECT_EQ(map_primes.misses(), misses_before);  // backing hits, no Miller–Rabin
  Bigint out;
  EXPECT_FALSE(map_primes.try_get(0xdeadbeefdeadbeefull, out));
}

TEST_F(StoreTest, SecondPublishAdvancesCurrentAndKeepsOldEpoch) {
  fs::path root = fs::path(::testing::TempDir()) / "vc_store_epochs";
  fs::remove_all(root);
  store::EpochStore store(root);
  EXPECT_FALSE(store.has_current());
  EXPECT_THROW(store.open_current(), store::StoreCurrentError);

  SnapshotPtr first = *mem_snap_;
  store.publish(*first, 1);
  ASSERT_EQ(store.current_epoch(), first->epoch());

  std::vector<Document> docs = {Document{
      900, "new", synth_word(bed_->spec, 0) + " " + synth_word(bed_->spec, 1)}};
  bed_->vidx.add_documents(docs, bed_->owner_ctx, bed_->owner_key);
  SnapshotPtr second = bed_->vidx.snapshot();
  ASSERT_GT(second->epoch(), first->epoch());
  store.publish(*second, 1);

  EXPECT_EQ(store.current_epoch(), second->epoch());
  EXPECT_EQ(store.epochs(), (std::vector<std::uint64_t>{first->epoch(), second->epoch()}));
  // The superseded epoch stays openable (rollback / audit).
  store::OpenedEpoch old_epoch = store.open_epoch(first->epoch());
  EXPECT_EQ(old_epoch.snapshot->epoch(), first->epoch());
  store::OpenedEpoch cur = store.open_current();
  EXPECT_EQ(cur.snapshot->epoch(), second->epoch());
  fs::remove_all(root);
}

TEST_F(StoreTest, FlippedPayloadByteIsCorrupt) {
  fs::path p = scratch_copy("flip");
  // Past header + section table: guaranteed payload territory.
  flip_byte(p, fs::file_size(p) - 7);
  EXPECT_THROW(open_file(p), store::StoreCorruptError);
}

TEST_F(StoreTest, TruncatedFileIsTruncated) {
  fs::path p = scratch_copy("trunc");
  fs::resize_file(p, fs::file_size(p) / 2);
  EXPECT_THROW(open_file(p), store::StoreTruncatedError);
  fs::path tiny = scratch_copy("tiny");
  fs::resize_file(tiny, store::kHeaderBytes / 2);
  EXPECT_THROW(open_file(tiny), store::StoreTruncatedError);
}

TEST_F(StoreTest, FlippedFingerprintIsParamMismatch) {
  fs::path p = scratch_copy("fp");
  flip_byte(p, store::kFingerprintOffset);
  EXPECT_THROW(open_file(p), store::StoreParamMismatchError);
}

TEST_F(StoreTest, BadMagicIsCorrupt) {
  fs::path p = scratch_copy("magic");
  flip_byte(p, 0);
  EXPECT_THROW(open_file(p), store::StoreCorruptError);
}

// A store written before snapshots and deltas shared one record layout
// carries the previous magic; it is refused at open, never misparsed.
TEST_F(StoreTest, PreviousFormatMagicIsCorrupt) {
  fs::path p = scratch_copy("vcepoch3");
  Bytes raw = read_file(p);
  ASSERT_EQ(raw[7], '4');
  raw[7] = '3';
  write_file(p, raw);
  EXPECT_THROW(open_file(p), store::StoreCorruptError);
}

TEST_F(StoreTest, StaleCurrentPointerIsCurrentError) {
  fs::path root = fs::path(::testing::TempDir()) / "vc_store_stale";
  fs::remove_all(root);
  store::EpochStore store(root);
  store.publish(*bed_->vidx.snapshot(), 1);
  {
    std::ofstream current(root / store::EpochStore::kCurrentFile, std::ios::trunc);
    current << store::EpochStore::epoch_dir_name(999) << "\n";
  }
  EXPECT_THROW(store.open_current(), store::StoreCurrentError);
  {
    std::ofstream current(root / store::EpochStore::kCurrentFile, std::ios::trunc);
    current << "not-an-epoch\n";
  }
  EXPECT_THROW(store.open_current(), store::StoreCurrentError);
  fs::remove_all(root);
}

TEST_F(StoreTest, InspectReportsLayoutAndCrcVerdicts) {
  store::MappedFile file(current_file());
  store::StoreFileInfo info = store::inspect_file(file);
  EXPECT_EQ(info.format_version, store::kFormatVersion);
  EXPECT_EQ(info.epoch, (*mem_snap_)->epoch());
  EXPECT_EQ(info.file_bytes, file.size());
  EXPECT_EQ(info.param_fingerprint, store::param_fingerprint(bed_->config));
  ASSERT_EQ(info.sections.size(), 8u);
  for (const auto& s : info.sections) EXPECT_TRUE(s.crc_ok) << store::section_name(s.id);
  EXPECT_EQ(info.base_epoch, 0u);  // a full record
  EXPECT_EQ(info.terms, (*mem_snap_)->term_count());
  EXPECT_EQ(info.removed_terms, 0u);

  // inspect_file flags payload damage instead of throwing.
  fs::path p = scratch_copy("inspect");
  flip_byte(p, fs::file_size(p) - 7);
  store::MappedFile damaged(p);
  store::StoreFileInfo dinfo = store::inspect_file(damaged);
  bool any_bad = false;
  for (const auto& s : dinfo.sections) any_bad = any_bad || !s.crc_ok;
  EXPECT_TRUE(any_bad);
}

// Directory extents and section-table entries near 2^64 must not wrap past
// the bounds checks into an out-of-mapping read: the forged file re-CRCs
// cleanly, so only the overflow-safe comparison stands between it and the
// subspan.
TEST_F(StoreTest, CraftedExtentsNearTwoToTheSixtyFourAreCorrupt) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const Bytes raw = read_file(current_file());
  fs::path p = *root_ / "crafted-extent.vcs";

  write_file(p, replace_section(raw, store::SectionId::kTermDirectory,
                                one_term_directory(kMax, 2)));
  EXPECT_THROW(open_file(p), store::StoreCorruptError);
  write_file(p, replace_section(raw, store::SectionId::kTermDirectory,
                                one_term_directory(1, kMax)));
  EXPECT_THROW(open_file(p), store::StoreCorruptError);

  // Section table: the last section's size wraps offset + size around to a
  // value inside the file.
  Bytes table = raw;
  const std::size_t count = load_le(table, kSectionCountOffset, 4);
  const std::size_t last = store::kHeaderBytes + (count - 1) * store::kSectionEntryBytes;
  const std::uint64_t last_offset = load_le(table, last + 8, 8);
  store_le(table, last + 16, kMax - last_offset + 2, 8);
  store_le(table, kTableCrcOffset,
           store::crc32(std::span<const std::uint8_t>(table).subspan(
               store::kHeaderBytes, count * store::kSectionEntryBytes)),
           4);
  write_file(p, table);
  EXPECT_THROW(open_file(p), store::StoreError);
}

// Counts that claim more items than their section could hold are typed
// errors, raised before anything is reserved: the term directory at open,
// a posting list when its entry first materializes.
TEST_F(StoreTest, CraftedHugeCountsAreTypedErrors) {
  const Bytes raw = read_file(current_file());
  fs::path p = *root_ / "crafted-count.vcs";
  for (std::uint64_t huge : {std::uint64_t{1} << 62, std::uint64_t{1} << 28}) {
    ByteWriter dir;
    dir.varint(huge);
    dir.raw(Bytes(4, 0));
    write_file(p, replace_section(raw, store::SectionId::kTermDirectory, dir.data()));
    EXPECT_THROW(open_file(p), ParseError) << huge;

    ByteWriter entry;
    entry.u8(0);         // a full blob
    entry.varint(huge);  // posting count
    entry.raw(Bytes(4, 0));
    Bytes forged = replace_section(raw, store::SectionId::kEntries, entry.data());
    forged = replace_section(forged, store::SectionId::kTermDirectory,
                             one_term_directory(0, entry.size()));
    forged = replace_section(forged, store::SectionId::kMeta, full_meta(1));
    write_file(p, forged);
    store::OpenedEpoch opened = open_file(p);
    EXPECT_THROW((void)opened.snapshot->find("a"), ParseError) << huge;
  }
}

// Config values and the max posting count size allocations on the serving
// side (the fixed-base table is (max_posting_count + 1)·rep_bits bits), so a
// forged store that re-CRCs and re-fingerprints cleanly must still fail at
// open with a typed error.
TEST_F(StoreTest, CraftedConfigAndMaxPostingsAreTypedErrors) {
  const Bytes raw = read_file(current_file());
  fs::path p = *root_ / "crafted-config.vcs";
  auto with_config = [&](const VerifiableIndexConfig& cfg) {
    ByteWriter w;
    cfg.write(w);
    Bytes forged = replace_section(raw, store::SectionId::kConfig, w.data());
    const Digest fp = Sha256::hash(w.data());
    std::copy(fp.begin(), fp.end(), forged.begin() + store::kFingerprintOffset);
    return forged;
  };
  write_file(p, with_config(bed_->config));
  EXPECT_NO_THROW(open_file(p));  // the re-fingerprinting itself is sound
  const std::vector<void (*)(VerifiableIndexConfig&)> forgeries = {
      [](VerifiableIndexConfig& c) { c.rep_bits = std::size_t{1} << 40; },
      [](VerifiableIndexConfig& c) { c.rep_bits = std::size_t{1} << 63; },  // 2·rep_bits wraps
      [](VerifiableIndexConfig& c) { c.rep_bits = 16; },
      [](VerifiableIndexConfig& c) { c.rep_bits = c.modulus_bits / 2; },
      [](VerifiableIndexConfig& c) { c.modulus_bits = std::size_t{1} << 40; },
      [](VerifiableIndexConfig& c) { c.modulus_bits += 1; },
      [](VerifiableIndexConfig& c) { c.interval_size = 0; },
  };
  for (std::size_t i = 0; i < forgeries.size(); ++i) {
    VerifiableIndexConfig cfg = bed_->config;
    forgeries[i](cfg);
    write_file(p, with_config(cfg));
    EXPECT_THROW(open_file(p), store::StoreCorruptError) << "forgery " << i;
  }

  // A full record's max posting count above its entries bytes / 8.
  write_file(p, replace_section(raw, store::SectionId::kMeta, full_meta(std::uint64_t{1} << 40)));
  EXPECT_THROW(open_file(p), store::StoreCorruptError);

  // A delta's max posting count is bounded by the whole chain's entries: an
  // honest patch that keeps all its base postings passes, a forged count
  // fails.
  const SnapshotPtr& snap = *mem_snap_;
  const fs::path chain_root = *root_ / "crafted-chain";
  fs::remove_all(chain_root);
  store::EpochStore chain(chain_root);
  chain.publish(*snap, 1);
  const std::string& term = snap->entries().begin()->first;
  const std::shared_ptr<const IndexEntry> entry(snap, snap->find(term));
  IndexDelta delta;
  delta.epoch = snap->epoch() + 1;
  delta.base_epoch = snap->epoch();
  delta.config = snap->config();
  delta.touched.emplace(term, entry);
  delta.bases.emplace(term, entry);
  delta.max_posting_count = snap->max_posting_count();
  chain.publish_delta(delta, 1);
  EXPECT_EQ(chain.open_current().snapshot->max_posting_count(), snap->max_posting_count());
  delta.epoch += 1;
  delta.base_epoch += 1;
  delta.max_posting_count = std::size_t{1} << 40;
  chain.publish_delta(delta, 1);
  EXPECT_THROW((void)chain.open_current(), store::StoreCorruptError);
  fs::remove_all(chain_root);
}

// An entry whose signed Bloom filter claims params other than the epoch
// config's is rejected when it materializes, before the filter is decoded:
// decompress_bloom sizes its counters from those params.  The mismatch here
// is one counter, so nothing large is allocated whichever way it goes.
IndexEntry with_bloom_counters(const IndexEntry& honest, std::uint32_t counters) {
  IndexEntry e = honest;
  e.bloom_attestation.stmt.doc_bloom.params.counters = counters;
  return e;
}

TEST_F(StoreTest, CraftedBloomParamsInSnapshotEntryAreTypedErrors) {
  const SnapshotPtr& snap = *mem_snap_;
  const std::string& term = snap->entries().begin()->first;
  IndexSnapshot::EntryMap entries = snap->entries();
  entries[term] = std::make_shared<const IndexEntry>(
      with_bloom_counters(*snap->find(term), snap->config().bloom.counters + 1));
  IndexSnapshot forged(snap->config(), snap->epoch(), std::move(entries),
                       std::shared_ptr<const DictionaryIntervals>(snap, &snap->dictionary()),
                       std::shared_ptr<const DictAttestation>(snap, &snap->dict_attestation()),
                       std::shared_ptr<PrimeCache>(snap, &snap->tuple_primes()),
                       std::shared_ptr<PrimeCache>(snap, &snap->doc_primes()));
  fs::path p = *root_ / "crafted-bloom.vcs";
  write_file(p, store::encode_epoch(forged, 1));
  store::OpenedEpoch opened = open_file(p);
  EXPECT_THROW((void)opened.snapshot->find(term), store::StoreParamMismatchError);
  const std::string& other = std::next(snap->entries().begin())->first;
  EXPECT_NE(opened.snapshot->find(other), nullptr);
}

// A store holding the published epoch as its full record and `delta` as
// the layered record over it.  `bytes` (when given) replace the layered
// record's file, which only the store can open: it stacks over its base.
store::OpenedEpoch open_layered(const fs::path& root, const SnapshotPtr& base,
                                const IndexDelta& delta, const Bytes* bytes = nullptr) {
  store::EpochStore chain(root);
  if (!chain.has_current()) {
    chain.publish(*base, 1);
    chain.publish_delta(delta, 1);
  }
  if (bytes != nullptr) write_file(chain.delta_file(delta.epoch), *bytes);
  return chain.open_current();
}

TEST_F(StoreTest, CraftedBloomParamsInDeltaEntryAreTypedErrors) {
  const SnapshotPtr& snap = *mem_snap_;
  const std::string& term = snap->entries().begin()->first;
  IndexDelta delta;
  delta.epoch = snap->epoch() + 1;
  delta.base_epoch = snap->epoch();
  delta.config = snap->config();
  delta.touched.emplace(term, std::make_shared<const IndexEntry>(with_bloom_counters(
                                  *snap->find(term), snap->config().bloom.counters - 1)));
  delta.max_posting_count = snap->max_posting_count();
  const fs::path root = *root_ / "crafted-bloom-chain";
  fs::remove_all(root);
  store::OpenedEpoch opened = open_layered(root, snap, delta);
  EXPECT_THROW((void)opened.snapshot->find(term), store::StoreParamMismatchError);
  fs::remove_all(root);
}

// A layered record's term directory and removed-term list get the same
// treatment.
TEST_F(StoreTest, CraftedDeltaDirectoriesAreTypedErrors) {
  const SnapshotPtr& snap = *mem_snap_;
  const std::string& term = snap->entries().begin()->first;
  IndexDelta delta;
  delta.epoch = snap->epoch() + 1;
  delta.base_epoch = snap->epoch();
  delta.config = snap->config();
  delta.touched.emplace(term, std::shared_ptr<const IndexEntry>(snap, snap->find(term)));
  delta.removed = {"zzzgone"};
  delta.max_posting_count = snap->max_posting_count();
  const Bytes raw = store::encode_epoch(delta, 1);
  const fs::path root = *root_ / "crafted-chain-dirs";
  fs::remove_all(root);
  auto open = [&](const Bytes& bytes) { return open_layered(root, snap, delta, &bytes); };
  ASSERT_NO_THROW(open(raw));

  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW(open(replace_section(raw, store::SectionId::kTermDirectory,
                                    one_term_directory(kMax, 2))),
               store::StoreCorruptError);
  for (std::uint64_t huge : {std::uint64_t{1} << 62, std::uint64_t{1} << 28}) {
    ByteWriter count;
    count.varint(huge);
    count.raw(Bytes(4, 0));
    EXPECT_THROW(open(replace_section(raw, store::SectionId::kTermDirectory, count.data())),
                 ParseError)
        << huge;
    EXPECT_THROW(open(replace_section(raw, store::SectionId::kRemoved, count.data())),
                 ParseError)
        << huge;
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace vc
