/**
 * @file
 * Cross-VM request coalescing: merge planning for the IOhost fan-out
 * point (the "Cross-IP Request Coalescing" relocation argument).
 *
 * The I/O hypervisor briefly stages block requests arriving from
 * different clients and, when the merge window closes, hands the
 * staged set to planMergedRuns(), which groups same-destination,
 * adjacent-LBA requests into runs the backend serves as ONE
 * submission.  Completions are split back per-VM by the caller using
 * sliceRunData().
 *
 * This layer is pure data-in/data-out — no simulation state, no
 * clocks, no RNG — so the merge rules are unit-testable in isolation
 * and trivially deterministic: output order depends only on entry
 * LBAs and arrival order, never on container addresses.
 *
 * Merge rules (DESIGN.md §15):
 *  - reads (BlkType::In) merge when their sector ranges touch or
 *    overlap: adjacency, exact duplicates, subsets and partial
 *    overlaps all collapse into one covering backend read;
 *  - writes (BlkType::Out) merge only on exact adjacency — an
 *    overlapping write pair has an ordering obligation a single
 *    submission cannot express, so it never merges;
 *  - data requests may merge across namespaces of the same backing
 *    device (a shared volume striped across VMs is the point), but
 *    FLUSH and TRIM are namespace fences: they only fold with other
 *    FLUSH/TRIM of the *same* namespace;
 *  - a run never exceeds `max_run` member requests;
 *  - a request of any other type runs alone.
 */
#ifndef VRIO_TRANSPORT_COALESCE_HPP
#define VRIO_TRANSPORT_COALESCE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "util/byte_buffer.hpp"
#include "virtio/virtio_blk.hpp"

namespace vrio::transport {

/** One block request of a run, normalized to backend sector space. */
struct CoalesceEntry
{
    uint32_t device_id = 0;
    uint64_t serial = 0;
    uint16_t generation = 0;
    /** virtio::BlkType of the request. */
    uint8_t blk_type = 0;
    /** Namespace (per-VM region) on the shared backing device. */
    uint32_t ns_id = 0;
    /** The request's client sector, echoed in its response. */
    uint64_t sector = 0;
    /** Backend LBA: client sector + the namespace's sector offset
     *  (a run of one still omits the offset; IoHypervisor::runOne). */
    uint64_t lba = 0;
    uint32_t nsectors = 0;
    /** Staging order; fan-back completes parts in this order. */
    uint64_t arrival = 0;
    /** Whether the wire payload arrived zero-copy (write accounting). */
    bool zero_copy = true;
    /** Write payload (empty for reads / flush / discard). */
    Bytes payload;

    uint64_t end() const { return lba + nsectors; }
};

/** One backend submission covering its `parts` requests. */
struct MergedRun
{
    uint8_t blk_type = 0;
    uint64_t lba = 0;
    uint32_t nsectors = 0;
    /** Members in (lba, arrival) order until the response stage
     *  re-sorts them by arrival to fan back. */
    std::vector<CoalesceEntry> parts;

    /** The run of one: @p e alone, nothing merged. */
    static MergedRun of(CoalesceEntry e);

    bool merged() const { return parts.size() > 1; }
    uint64_t end() const { return lba + nsectors; }
    /** Earliest arrival among parts (run ordering key). */
    uint64_t firstArrival() const;
};

/**
 * Plan backend submissions for one staged set against one backing
 * device.  Runs come back ordered by their earliest member's arrival,
 * so a flush of the staging buffer preserves rough request order.
 */
std::vector<MergedRun> planMergedRuns(std::vector<CoalesceEntry> entries,
                                      size_t max_run);

/** Assemble a merged write run's backend payload (parts placed by LBA). */
Bytes buildRunPayload(const MergedRun &run);

/**
 * View @p part's slice of a read run's completion data (the per-VM
 * fan-back).  Empty if @p data is too short to cover the part (error
 * and write completions carry no data).
 */
std::span<const uint8_t> sliceRunData(const MergedRun &run,
                                      const CoalesceEntry &part,
                                      std::span<const uint8_t> data);

} // namespace vrio::transport

#endif // VRIO_TRANSPORT_COALESCE_HPP
