#include "measure/dataset.hpp"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/diag.hpp"

namespace ethsim::measure {

namespace {

namespace fs = std::filesystem;

// Records an I/O or parse failure: logs it and hands the failing path (with
// reason) to the caller's error slot. Always returns false so call sites can
// `return Fail(...)`.
bool Fail(std::string* error, const std::string& path,
          const std::string& reason) {
  obs::LogError("dataset", "%s: %s", path.c_str(), reason.c_str());
  if (error != nullptr) *error = path + ": " + reason;
  return false;
}

bool ParseI64(const std::string& s, std::int64_t& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool ParseU64(const std::string& s, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

const char* KindName(eth::MessageSink::BlockMsgKind kind) {
  switch (kind) {
    case eth::MessageSink::BlockMsgKind::kFullBlock: return "full";
    case eth::MessageSink::BlockMsgKind::kAnnouncement: return "announce";
    case eth::MessageSink::BlockMsgKind::kFetched: return "fetched";
  }
  return "?";
}

bool ParseKind(const std::string& s, eth::MessageSink::BlockMsgKind& kind) {
  if (s == "full") {
    kind = eth::MessageSink::BlockMsgKind::kFullBlock;
  } else if (s == "announce") {
    kind = eth::MessageSink::BlockMsgKind::kAnnouncement;
  } else if (s == "fetched") {
    kind = eth::MessageSink::BlockMsgKind::kFetched;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, '\t')) fields.push_back(field);
  return fields;
}

}  // namespace

VantageLog SnapshotObserver(const Observer& observer) {
  VantageLog log;
  log.name = observer.name();
  log.region = observer.region();
  log.clock_offset = observer.clock_offset();
  const auto blocks = observer.block_arrivals();
  const auto txs = observer.tx_arrivals();
  log.block_arrivals.assign(blocks.begin(), blocks.end());
  log.tx_arrivals.assign(txs.begin(), txs.end());
  log.imports = observer.imports();
  return log;
}

std::vector<CatalogBlock> BuildCatalog(
    const std::vector<miner::MintRecord>& minted,
    const std::vector<miner::PoolSpec>& pools) {
  std::vector<CatalogBlock> catalog;
  catalog.reserve(minted.size());
  for (const auto& record : minted) {
    CatalogBlock row;
    row.hash = record.block->hash;
    row.number = record.block->header.number;
    row.parent = record.block->header.parent_hash;
    row.pool = record.pool_index < pools.size() ? pools[record.pool_index].name
                                                : "unknown";
    row.empty = record.block->IsEmpty();
    row.fork_sibling = record.is_fork_sibling;
    row.mined_at = record.mined_at;
    catalog.push_back(std::move(row));
  }
  return catalog;
}

std::unique_ptr<Observer> ReplayObserver(const VantageLog& log,
                                         sim::Simulator& simulator) {
  auto observer = std::make_unique<Observer>(log.name, log.region, simulator,
                                             log.clock_offset);
  for (const auto& arrival : log.block_arrivals)
    observer->IngestBlockArrival(arrival);
  for (const auto& arrival : log.tx_arrivals) observer->IngestTxArrival(arrival);
  for (const auto& event : log.imports) observer->IngestImport(event);
  return observer;
}

std::vector<miner::MintRecord> ReconstructMintRecords(
    chain::BlockArena& arena, const std::vector<CatalogBlock>& catalog,
    const std::vector<miner::PoolSpec>& pools) {
  std::unordered_map<std::string, std::size_t> pool_by_name;
  for (std::size_t i = 0; i < pools.size(); ++i)
    pool_by_name.emplace(pools[i].name, i);

  std::vector<miner::MintRecord> minted;
  minted.reserve(catalog.size());
  for (const auto& row : catalog) {
    const auto it = pool_by_name.find(row.pool);
    if (it == pool_by_name.end()) continue;
    chain::Block block;
    block.header.number = row.number;
    block.header.parent_hash = row.parent;
    block.hash = row.hash;  // persisted identity overrides the recomputed one
    miner::MintRecord record;
    record.block = arena.Adopt(std::move(block));
    record.pool_index = it->second;
    record.mined_at = row.mined_at;
    record.deliberate_empty = row.empty;
    record.is_fork_sibling = row.fork_sibling;
    minted.push_back(std::move(record));
  }
  return minted;
}

bool WriteDataset(const std::string& directory, const Dataset& dataset,
                  std::string* error) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) return Fail(error, directory, "cannot create: " + ec.message());

  // Open + write + verify one file. Checking good() after the writer ran
  // (not just after open) catches mid-write failures: disk-full, the
  // directory vanishing, a revoked permission.
  const auto write_file = [&](const std::string& filename,
                              const auto& writer) {
    const std::string path = (fs::path(directory) / filename).string();
    std::ofstream out(path);
    if (!out) return Fail(error, path, "cannot open for writing");
    writer(out);
    out.flush();
    if (!out.good()) return Fail(error, path, "write failed");
    return true;
  };

  if (!write_file("MANIFEST.tsv", [&](std::ostream& manifest) {
        manifest << "# vantage\tregion\tclock_offset_us\n";
        for (const auto& vantage : dataset.vantages)
          manifest << vantage.name << '\t'
                   << net::RegionShortName(vantage.region) << '\t'
                   << vantage.clock_offset.micros() << '\n';
      }))
    return false;

  for (const auto& vantage : dataset.vantages) {
    if (!write_file(vantage.name + ".blocks.tsv", [&](std::ostream& blocks) {
          blocks << "# local_time_us\thash\tnumber\tkind\n";
          for (const auto& arrival : vantage.block_arrivals)
            blocks << arrival.local_time.micros() << '\t'
                   << ToHex(arrival.hash) << '\t' << arrival.number << '\t'
                   << KindName(arrival.kind) << '\n';
        }))
      return false;

    if (!write_file(vantage.name + ".txs.tsv", [&](std::ostream& txs) {
          txs << "# local_time_us\thash\tsender\tnonce\n";
          for (const auto& arrival : vantage.tx_arrivals)
            txs << arrival.local_time.micros() << '\t' << ToHex(arrival.hash)
                << '\t' << ToHex(arrival.sender) << '\t' << arrival.nonce
                << '\n';
        }))
      return false;

    if (!write_file(vantage.name + ".imports.tsv", [&](std::ostream& imports) {
          imports << "# local_time_us\thash\tnumber\tnew_head\n";
          for (const auto& event : vantage.imports)
            imports << event.local_time.micros() << '\t' << ToHex(event.hash)
                    << '\t' << event.number << '\t' << (event.new_head ? 1 : 0)
                    << '\n';
        }))
      return false;
  }

  return write_file("catalog.tsv", [&](std::ostream& catalog) {
    catalog
        << "# hash\tnumber\tparent\tpool\tempty\tfork_sibling\tmined_at_us\n";
    for (const auto& row : dataset.catalog)
      catalog << ToHex(row.hash) << '\t' << row.number << '\t'
              << ToHex(row.parent) << '\t' << row.pool << '\t'
              << (row.empty ? 1 : 0) << '\t' << (row.fork_sibling ? 1 : 0)
              << '\t' << row.mined_at.micros() << '\n';
  });
}

bool ReadDataset(const std::string& directory, Dataset& out,
                 std::string* error) {
  out = Dataset{};

  // Line-oriented TSV reader: opens `filename`, hands every non-comment line
  // (split on tabs) to `parse`, and reports the failing path *and line
  // number* on malformed records — "which file" alone is useless when a
  // 100 MB log has one truncated row.
  const auto read_file =
      [&](const std::string& filename, std::size_t want_fields,
          const auto& parse) {
        const std::string path = (fs::path(directory) / filename).string();
        std::ifstream in(path);
        if (!in) return Fail(error, path, "cannot open for reading");
        std::string line;
        std::size_t lineno = 0;
        while (std::getline(in, line)) {
          ++lineno;
          if (line.empty() || line[0] == '#') continue;
          const auto fields = SplitTabs(line);
          if (fields.size() != want_fields || !parse(fields))
            return Fail(error, path,
                        "malformed record at line " + std::to_string(lineno));
        }
        if (in.bad()) return Fail(error, path, "read failed");
        return true;
      };

  if (!read_file("MANIFEST.tsv", 3, [&](const std::vector<std::string>& f) {
        VantageLog vantage;
        vantage.name = f[0];
        for (net::Region region : net::AllRegions())
          if (net::RegionShortName(region) == f[1]) vantage.region = region;
        std::int64_t offset_us = 0;
        if (!ParseI64(f[2], offset_us)) return false;
        vantage.clock_offset = Duration::Micros(offset_us);
        out.vantages.push_back(std::move(vantage));
        return true;
      }))
    return false;

  for (auto& vantage : out.vantages) {
    if (!read_file(vantage.name + ".blocks.tsv", 4,
                   [&](const std::vector<std::string>& f) {
                     BlockArrival arrival;
                     std::int64_t us = 0;
                     if (!ParseI64(f[0], us)) return false;
                     arrival.local_time = TimePoint::FromMicros(us);
                     arrival.hash = FixedBytesFromHex<32>(f[1]);
                     if (!ParseU64(f[2], arrival.number)) return false;
                     if (!ParseKind(f[3], arrival.kind)) return false;
                     vantage.block_arrivals.push_back(arrival);
                     return true;
                   }))
      return false;

    if (!read_file(vantage.name + ".txs.tsv", 4,
                   [&](const std::vector<std::string>& f) {
                     TxArrival arrival;
                     std::int64_t us = 0;
                     if (!ParseI64(f[0], us)) return false;
                     arrival.local_time = TimePoint::FromMicros(us);
                     arrival.hash = FixedBytesFromHex<32>(f[1]);
                     arrival.sender = FixedBytesFromHex<20>(f[2]);
                     if (!ParseU64(f[3], arrival.nonce)) return false;
                     vantage.tx_arrivals.push_back(arrival);
                     return true;
                   }))
      return false;

    if (!read_file(vantage.name + ".imports.tsv", 4,
                   [&](const std::vector<std::string>& f) {
                     ImportEvent event;
                     std::int64_t us = 0;
                     if (!ParseI64(f[0], us)) return false;
                     event.local_time = TimePoint::FromMicros(us);
                     event.hash = FixedBytesFromHex<32>(f[1]);
                     if (!ParseU64(f[2], event.number)) return false;
                     event.new_head = f[3] == "1";
                     vantage.imports.push_back(event);
                     return true;
                   }))
      return false;
  }

  return read_file("catalog.tsv", 7, [&](const std::vector<std::string>& f) {
    CatalogBlock row;
    row.hash = FixedBytesFromHex<32>(f[0]);
    if (!ParseU64(f[1], row.number)) return false;
    row.parent = FixedBytesFromHex<32>(f[2]);
    row.pool = f[3];
    row.empty = f[4] == "1";
    row.fork_sibling = f[5] == "1";
    std::int64_t us = 0;
    if (!ParseI64(f[6], us)) return false;
    row.mined_at = TimePoint::FromMicros(us);
    out.catalog.push_back(std::move(row));
    return true;
  });
}

}  // namespace ethsim::measure
