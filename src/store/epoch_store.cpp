#include "store/epoch_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "obs/metrics.hpp"
#include "store/codec_detail.hpp"
#include "support/stopwatch.hpp"

namespace vc::store {

namespace fs = std::filesystem;

namespace {

obs::Counter& epochs_published() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_store_epochs_published_total", "", "Epochs atomically published to disk");
  return c;
}
obs::Counter& delta_publishes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_store_delta_publishes_total", "",
      "Delta records atomically published to disk");
  return c;
}
obs::Counter& noop_publishes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_store_noop_publishes_total", "",
      "publish() calls skipped because CURRENT already held the epoch");
  return c;
}
obs::Counter& delta_opens() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_store_delta_opens_total", "", "Delta records resolved during epoch opens");
  return c;
}
obs::Gauge& chain_length_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "vc_store_chain_length", "",
      "Deltas stacked on the base snapshot at the last epoch open");
  return g;
}
obs::Counter& compaction_runs() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_compaction_runs_total", "", "Delta chains folded into full snapshots");
  return c;
}
obs::Counter& compaction_failures() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_compaction_failures_total", "", "Compaction attempts that threw");
  return c;
}
obs::TimeCounter& compaction_seconds() {
  static obs::TimeCounter& t = obs::MetricsRegistry::global().time_counter(
      "vc_compaction_seconds", "", "Wall time spent folding delta chains");
  return t;
}
obs::Histogram& compaction_stage() {
  static obs::Histogram& h = obs::MetricsRegistry::global().stage("store_compaction");
  return h;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw StoreError(what + ": " + std::strerror(errno));
}

// Crash-point hook for the cold-restart harness: when VC_STORE_CRASH_POINT
// names the point we just reached, die like a SIGKILL would — no unwinding,
// no flushing beyond what the durability protocol already fsynced.
void maybe_crash(const char* point) {
  const char* env = std::getenv("VC_STORE_CRASH_POINT");
  if (env != nullptr && std::strcmp(env, point) == 0) {
    std::fprintf(stderr, "store: crash point %s\n", point);
    std::fflush(stderr);
    ::_exit(137);
  }
}

// Durably writes `data` to `path`: write + fsync + close.  The atomicity
// comes from the caller's rename; this only guarantees the bytes are on
// the platter before the rename makes them reachable.
void write_file_synced(const fs::path& path, std::span<const std::uint8_t> data) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("cannot create " + path.string());
  std::size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      errno = err;
      throw_errno("cannot write " + path.string());
    }
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("cannot fsync " + path.string());
  }
  ::close(fd);
}

// fsyncs a directory so the entries renamed into it survive a crash.
void sync_dir(const fs::path& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_errno("cannot open directory " + dir.string());
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("cannot fsync directory " + dir.string());
  }
  ::close(fd);
}

// "epoch-<20 decimal digits>" -> epoch number, or nullopt.
std::optional<std::uint64_t> parse_epoch_dir(const std::string& name) {
  constexpr std::string_view kPrefix = "epoch-";
  if (name.size() != kPrefix.size() + 20 || name.compare(0, kPrefix.size(), kPrefix) != 0) {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  for (std::size_t i = kPrefix.size(); i < name.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

EpochStore::EpochStore(fs::path root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) throw StoreError("cannot create store root " + root_.string() + ": " + ec.message());
}

std::string EpochStore::epoch_dir_name(std::uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "epoch-%020llu", static_cast<unsigned long long>(epoch));
  return buf;
}

fs::path EpochStore::epoch_file(std::uint64_t epoch) const {
  return root_ / epoch_dir_name(epoch) / kSnapshotFile;
}

fs::path EpochStore::delta_file(std::uint64_t epoch) const {
  return root_ / epoch_dir_name(epoch) / kDeltaFile;
}

void EpochStore::advance_current(const std::string& dir_name) {
  const fs::path current_tmp = root_ / (std::string(kCurrentFile) + ".tmp");
  const std::string pointer = dir_name + "\n";
  write_file_synced(current_tmp,
                    {reinterpret_cast<const std::uint8_t*>(pointer.data()), pointer.size()});
  std::error_code ec;
  fs::rename(current_tmp, root_ / kCurrentFile, ec);
  if (ec) throw StoreError("cannot advance CURRENT: " + ec.message());
  sync_dir(root_);
}

fs::path EpochStore::publish(const IndexSnapshot& snap, std::uint32_t shard_count,
                             const TierArtifacts* tier) {
  const std::string dir_name = epoch_dir_name(snap.epoch());
  const fs::path target = root_ / dir_name;

  if (fs::exists(target / kSnapshotFile) && has_current()) {
    // True no-op: the epoch is durable and CURRENT already points at it —
    // re-serializing an identical file buys nothing.  A stale or damaged
    // pointer falls through to the normal path, which repairs it.
    try {
      if (read_current_name() == dir_name) {
        noop_publishes().inc();
        return target;
      }
    } catch (const StoreError&) {
    }
  }

  if (!fs::exists(target / kSnapshotFile)) {
    Bytes data = encode_epoch(snap, shard_count, tier);
    // Stage in a hidden temp directory; the pid suffix keeps concurrent
    // publishers (two owner processes on one store) from colliding.
    const fs::path tmp =
        root_ / (".tmp-" + dir_name + "-" + std::to_string(::getpid()));
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    write_file_synced(tmp / kSnapshotFile, data);
    sync_dir(tmp);
    std::error_code ec;
    fs::rename(tmp, target, ec);
    if (ec) {
      // Lost a race to another publisher of the same epoch: their complete
      // directory is as good as ours.
      if (!fs::exists(target / kSnapshotFile)) {
        throw StoreError("cannot publish " + target.string() + ": " + ec.message());
      }
      fs::remove_all(tmp);
    }
    sync_dir(root_);
  }

  // Advance CURRENT via the same write-then-rename dance.
  advance_current(dir_name);
  epochs_published().inc();
  return target;
}

fs::path EpochStore::publish_delta(const IndexDelta& delta, std::uint32_t shard_count) {
  // A delta that cannot resolve would brick CURRENT: its base must already
  // be on disk (as a snapshot or as an earlier delta).
  if (!fs::exists(epoch_file(delta.base_epoch)) && !fs::exists(delta_file(delta.base_epoch))) {
    throw StoreChainError("base epoch " + std::to_string(delta.base_epoch) +
                          " is not in " + root_.string());
  }
  const std::string dir_name = epoch_dir_name(delta.epoch);
  const fs::path target = root_ / dir_name;

  if (!fs::exists(target / kDeltaFile) && !fs::exists(target / kSnapshotFile)) {
    Bytes data = encode_epoch(delta, shard_count);
    const fs::path tmp =
        root_ / (".tmp-" + dir_name + "-" + std::to_string(::getpid()));
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    write_file_synced(tmp / kDeltaFile, data);
    sync_dir(tmp);
    maybe_crash("delta-staged");
    std::error_code ec;
    fs::rename(tmp, target, ec);
    if (ec) {
      if (!fs::exists(target / kDeltaFile) && !fs::exists(target / kSnapshotFile)) {
        throw StoreError("cannot publish delta " + target.string() + ": " + ec.message());
      }
      fs::remove_all(tmp);
    }
    sync_dir(root_);
  }

  maybe_crash("delta-current");
  advance_current(dir_name);
  delta_publishes().inc();
  return target;
}

bool EpochStore::has_current() const { return fs::exists(root_ / kCurrentFile); }

std::string EpochStore::read_current_name() const {
  std::ifstream in(root_ / kCurrentFile);
  if (!in) throw StoreCurrentError("missing in " + root_.string());
  std::string name;
  std::getline(in, name);
  if (!parse_epoch_dir(name)) {
    throw StoreCurrentError("malformed content \"" + name + "\"");
  }
  if (!fs::exists(root_ / name / kSnapshotFile) && !fs::exists(root_ / name / kDeltaFile)) {
    throw StoreCurrentError("stale: names missing epoch " + name);
  }
  return name;
}

std::optional<std::uint64_t> EpochStore::current_epoch() const {
  if (!has_current()) return std::nullopt;
  return parse_epoch_dir(read_current_name());
}

std::vector<std::uint64_t> EpochStore::epochs() const {
  std::vector<std::uint64_t> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (!entry.is_directory()) continue;
    if (auto e = parse_epoch_dir(entry.path().filename().string())) {
      if (fs::exists(entry.path() / kSnapshotFile) || fs::exists(entry.path() / kDeltaFile)) {
        out.push_back(*e);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

OpenedEpoch EpochStore::open_current() const {
  return open_epoch(*parse_epoch_dir(read_current_name()));
}

OpenedEpoch EpochStore::open_epoch(std::uint64_t epoch) const {
  if (!fs::exists(epoch_file(epoch)) && !fs::exists(delta_file(epoch))) {
    throw StoreError("epoch " + std::to_string(epoch) + " is not in " + root_.string());
  }
  return resolve_chain(epoch);
}

void EpochStore::walk_chain(
    std::uint64_t head,
    const std::function<std::uint64_t(std::uint64_t, const fs::path&)>& visit) const {
  std::uint64_t epoch = head;
  for (std::uint32_t layered = 0;; ++layered) {
    fs::path file = epoch_file(epoch);
    if (!fs::exists(file)) file = delta_file(epoch);
    if (!fs::exists(file)) {
      throw StoreChainError("epoch " + std::to_string(epoch) + " is missing (chain head " +
                            std::to_string(head) + ")");
    }
    const std::uint64_t base = visit(epoch, file);
    if (base == 0) return;
    if (base >= epoch) {
      throw StoreChainError("record in " + epoch_dir_name(epoch) + " has base epoch " +
                            std::to_string(base) + ", which does not precede it");
    }
    if (layered >= kMaxChainLength) {
      throw StoreChainError("chain from epoch " + std::to_string(head) + " exceeds " +
                            std::to_string(kMaxChainLength) + " deltas");
    }
    epoch = base;
  }
}

OpenedEpoch EpochStore::resolve_chain(std::uint64_t head) const {
  // The walk alone decides how deep `head` goes: compaction may install a
  // snapshot at any moment, and a walk that meets one stops there.
  std::vector<detail::Record> layers;
  walk_chain(head, [&](std::uint64_t epoch, const fs::path& file) {
    detail::Record r = detail::open_record(std::make_shared<const MappedFile>(file));
    if (r.epoch != epoch) {
      throw StoreCorruptError("record in " + epoch_dir_name(epoch) + " claims epoch " +
                              std::to_string(r.epoch));
    }
    if (r.base_epoch != 0) delta_opens().inc();
    layers.push_back(std::move(r));
    return layers.back().base_epoch;
  });
  std::reverse(layers.begin(), layers.end());  // full record first
  OpenedEpoch out = detail::stack_records(std::move(layers));
  chain_length_gauge().set(out.chain_length);
  return out;
}

std::optional<std::uint64_t> EpochStore::compact(std::uint32_t min_chain_length) {
  if (!has_current()) return std::nullopt;
  OpenedEpoch head = open_current();
  if (head.chain_length < std::max<std::uint32_t>(1, min_chain_length)) return std::nullopt;

  Stopwatch timer;
  obs::Span span(compaction_stage(), "store_compaction");
  // Materialize the overlay into one full snapshot.  The surviving witness
  // tier and the base's fixed-base table ride along (tier sections) so the
  // compacted epoch keeps its zero-modexp hot path.
  TierArtifacts arts;
  const TierArtifacts* tier = nullptr;
  if (head.tier != nullptr && head.fixed_base.has_value()) {
    arts.tier = head.tier;
    arts.fixed_base = *head.fixed_base;
    tier = &arts;
  }
  Bytes data = encode_epoch(*head.snapshot, head.shard_count, tier);

  // File-level atomic: stage next to the target and rename.  CURRENT never
  // moves; the open path simply starts preferring the snapshot over the
  // chain.  A crash before the rename leaves a .tmp nothing reads and the
  // chain still resolves.
  const std::uint64_t epoch = head.snapshot->epoch();
  const fs::path dir = root_ / epoch_dir_name(epoch);
  const fs::path tmp = dir / (std::string(kSnapshotFile) + ".tmp-" +
                              std::to_string(::getpid()));
  write_file_synced(tmp, data);
  maybe_crash("compact-staged");
  std::error_code ec;
  fs::rename(tmp, dir / kSnapshotFile, ec);
  if (ec) {
    std::error_code ignore;
    fs::remove(tmp, ignore);
    throw StoreError("cannot install compacted snapshot " + (dir / kSnapshotFile).string() +
                     ": " + ec.message());
  }
  sync_dir(dir);
  compaction_runs().inc();
  compaction_seconds().add(timer.seconds());
  return epoch;
}

std::vector<EpochStore::ChainLink> EpochStore::current_chain() const {
  std::vector<ChainLink> out;
  walk_chain(*parse_epoch_dir(read_current_name()),
             [&](std::uint64_t epoch, const fs::path& file) {
               const bool is_delta = file.filename() == kDeltaFile;
               out.push_back(ChainLink{.epoch = epoch, .is_delta = is_delta,
                                       .compacted = !is_delta && fs::exists(delta_file(epoch)),
                                       .file = file});
               const std::uint64_t base = inspect_file(MappedFile(file)).base_epoch;
               if (is_delta && base == 0) {
                 throw StoreChainError("delta in " + epoch_dir_name(epoch) +
                                       " has an unreadable base epoch");
               }
               return base;
             });
  return out;
}

// --- background compaction ---------------------------------------------------

CompactionWorker::CompactionWorker(EpochStore& store, Options options)
    : store_(store), options_(options) {}

CompactionWorker::~CompactionWorker() { stop(); }

void CompactionWorker::start() {
  std::lock_guard lock(mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { loop(); });
}

void CompactionWorker::stop() {
  {
    std::lock_guard lock(mu_);
    if (!thread_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

std::optional<std::uint64_t> CompactionWorker::run_once() {
  try {
    auto compacted = store_.compact(options_.max_chain_length);
    if (compacted.has_value()) runs_.fetch_add(1, std::memory_order_relaxed);
    return compacted;
  } catch (const std::exception& e) {
    compaction_failures().inc();
    std::fprintf(stderr, "store: compaction failed: %s\n", e.what());
    return std::nullopt;
  }
}

void CompactionWorker::loop() {
  std::unique_lock lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_interval_ms),
                     [this] { return stop_; })) {
      return;
    }
    lock.unlock();
    run_once();
    lock.lock();
  }
}

}  // namespace vc::store
