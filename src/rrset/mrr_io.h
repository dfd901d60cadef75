#ifndef OIPA_RRSET_MRR_IO_H_
#define OIPA_RRSET_MRR_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "rrset/mrr_collection.h"
#include "rrset/sample_store.h"
#include "topic/influence_graph.h"
#include "util/status.h"

namespace oipa {

/// Binary snapshotting for MRR collections. At the paper's theta = 10^6
/// the sampling phase dominates setup time (Table III), so benches and
/// applications cache collections between runs. Format: little-endian,
/// magic "OIPAMRR2", then theta/l/n, sampling provenance (base seed,
/// diffusion model, extendable flag), roots, set offsets, members; the
/// inverted index is rebuilt on load (cheaper to rebuild than to store).
/// The format is append-aware: a grown collection round-trips exactly,
/// and because provenance is preserved, save -> load -> Extend produces
/// the same samples as extending the original. The file keeps int64
/// offsets and a roots array; loading narrows them to the in-memory
/// 32-bit layout and returns InvalidArgument — never aborts — for
/// another magic, a blob past its ceilings (MrrCollection::kMaxSamples,
/// kMaxMembers, kMaxPieces), with an empty RR set, or whose roots
/// differ from their sets' first members.
Status SaveMrrCollection(const MrrCollection& mrr, const std::string& path);

StatusOr<MrrCollection> LoadMrrCollection(const std::string& path);

/// Snapshot persistence for sample stores: writes the store's *current*
/// generation — the in-sample collection plus the holdout, when present
/// — as one file (magic "OIPASTO1" framing two OIPAMRR2 blobs).
/// Retired generations are never written; a store round-trips through
/// its snapshot.
Status SaveSampleStore(const SampleStore& store, const std::string& path);

/// Rebuilds a SampleStore from a snapshot file.
/// Like a built store's, the loaded holdout carries no inverted index.
/// Because sampling provenance round-trips, passing the piece graphs
/// the store was sampled over makes the loaded store growable again:
/// save -> load -> Grow continues the exact sample stream. Pass null
/// for a frozen (non-growable) store.
StatusOr<std::shared_ptr<SampleStore>> LoadSampleStore(
    const std::string& path,
    std::shared_ptr<const std::vector<InfluenceGraph>> pieces = nullptr);

}  // namespace oipa

#endif  // OIPA_RRSET_MRR_IO_H_
