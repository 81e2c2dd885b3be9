#include "transport/coalesce.hpp"

#include <algorithm>
#include <map>

namespace vrio::transport {

namespace {

constexpr size_t kSector = virtio::kSectorSize;

/** Stable (lba, arrival) order inside one kind bucket. */
void
sortByLba(std::vector<CoalesceEntry> &v)
{
    std::stable_sort(v.begin(), v.end(),
                     [](const CoalesceEntry &a, const CoalesceEntry &b) {
                         if (a.lba != b.lba)
                             return a.lba < b.lba;
                         return a.arrival < b.arrival;
                     });
}

/**
 * Chain a sorted bucket into runs.  `joins` decides whether the next
 * entry may join the open run; on join the run's covered range grows
 * to the union (which for exact adjacency is plain concatenation).
 */
void
chainRuns(std::vector<CoalesceEntry> bucket, size_t max_run,
          bool reads_overlap, std::vector<MergedRun> &out)
{
    sortByLba(bucket);
    MergedRun run;
    auto close = [&]() {
        if (!run.parts.empty())
            out.push_back(std::move(run));
        run = MergedRun{};
    };
    for (auto &e : bucket) {
        bool join = false;
        if (!run.parts.empty() && run.parts.size() < max_run) {
            if (reads_overlap)
                join = e.lba <= run.end(); // touch or overlap
            else
                join = e.lba == run.end(); // exact adjacency only
        }
        if (!join) {
            close();
            run = MergedRun::of(std::move(e));
            continue;
        }
        run.nsectors =
            uint32_t(std::max(run.end(), e.end()) - run.lba);
        run.parts.push_back(std::move(e));
    }
    close();
}

/** Fold a namespace's FLUSH (or zero-length) bucket into runs. */
void
foldRuns(std::vector<CoalesceEntry> bucket, size_t max_run,
         std::vector<MergedRun> &out)
{
    MergedRun run;
    for (auto &e : bucket) {
        if (!run.parts.empty() && run.parts.size() >= max_run) {
            out.push_back(std::move(run));
            run = MergedRun{};
        }
        if (run.parts.empty()) {
            run.blk_type = e.blk_type;
            run.lba = e.lba;
            run.nsectors = 0;
        }
        run.parts.push_back(std::move(e));
    }
    if (!run.parts.empty())
        out.push_back(std::move(run));
}

} // namespace

MergedRun
MergedRun::of(CoalesceEntry e)
{
    MergedRun run;
    run.blk_type = e.blk_type;
    run.lba = e.lba;
    run.nsectors = e.nsectors;
    run.parts.push_back(std::move(e));
    return run;
}

uint64_t
MergedRun::firstArrival() const
{
    uint64_t first = UINT64_MAX;
    for (const CoalesceEntry &p : parts)
        first = std::min(first, p.arrival);
    return first;
}

std::vector<MergedRun>
planMergedRuns(std::vector<CoalesceEntry> entries, size_t max_run)
{
    if (max_run == 0)
        max_run = 1;
    std::vector<CoalesceEntry> reads, writes;
    // FLUSH/TRIM are namespace fences: bucket per (kind, ns) so they
    // can never fold across namespaces.  std::map keys on ids, not
    // addresses, so bucket order is run-to-run deterministic.
    std::map<uint32_t, std::vector<CoalesceEntry>> flushes;
    std::map<uint32_t, std::vector<CoalesceEntry>> discards;
    std::vector<MergedRun> runs;
    for (auto &e : entries) {
        switch (virtio::BlkType(e.blk_type)) {
          case virtio::BlkType::In:
            reads.push_back(std::move(e));
            break;
          case virtio::BlkType::Out:
            writes.push_back(std::move(e));
            break;
          case virtio::BlkType::Flush:
            flushes[e.ns_id].push_back(std::move(e));
            break;
          case virtio::BlkType::Discard:
            discards[e.ns_id].push_back(std::move(e));
            break;
          default:
            // No merge rule: the entry runs alone, so every staged
            // request still gets its backend verdict and a response.
            runs.push_back(MergedRun::of(std::move(e)));
        }
    }

    chainRuns(std::move(reads), max_run, /*reads_overlap=*/true, runs);
    chainRuns(std::move(writes), max_run, /*reads_overlap=*/false, runs);
    for (auto &[ns, bucket] : flushes)
        foldRuns(std::move(bucket), max_run, runs);
    for (auto &[ns, bucket] : discards)
        chainRuns(std::move(bucket), max_run, /*reads_overlap=*/false,
                  runs);

    std::stable_sort(runs.begin(), runs.end(),
                     [](const MergedRun &a, const MergedRun &b) {
                         return a.firstArrival() < b.firstArrival();
                     });
    return runs;
}

Bytes
buildRunPayload(const MergedRun &run)
{
    Bytes data(size_t(run.nsectors) * kSector, 0);
    for (const CoalesceEntry &p : run.parts) {
        size_t off = size_t(p.lba - run.lba) * kSector;
        size_t len = std::min(p.payload.size(), data.size() - off);
        std::copy_n(p.payload.begin(), len, data.begin() + off);
    }
    return data;
}

std::span<const uint8_t>
sliceRunData(const MergedRun &run, const CoalesceEntry &part,
             std::span<const uint8_t> data)
{
    size_t off = size_t(part.lba - run.lba) * kSector;
    size_t len = size_t(part.nsectors) * kSector;
    if (off + len > data.size())
        return {};
    return data.subspan(off, len);
}

} // namespace vrio::transport
