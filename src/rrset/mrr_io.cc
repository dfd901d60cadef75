#include "rrset/mrr_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/default_init_allocator.h"
#include "util/fault_injector.h"

namespace oipa {

namespace {

// "OIPAMRR2" records sampling provenance — base seed, diffusion model,
// extendable flag — so a loaded collection keeps growing bit-identically
// to the one that was saved.
constexpr uint64_t kMagicV2 = 0x4f4950414d525232ULL;  // "OIPAMRR2"
// Store snapshot framing: flags word, then one embedded (and still
// self-describing) collection blob per held collection.
constexpr uint64_t kMagicStore = 0x4f49504153544f31ULL;  // "OIPASTO1"

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

template <typename T>
void WriteVector(std::ofstream& out, const std::vector<T>& v) {
  WritePod(out, static_cast<uint64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/// Reads `size` elements into `v`. The read overwrites every slot, so
/// the storage is not zero-filled first.
template <typename T>
bool ReadElements(std::ifstream& in, uint64_t size, DefaultInitVector<T>* v) {
  v->resize(size);
  in.read(reinterpret_cast<char*>(v->data()),
          static_cast<std::streamsize>(size * sizeof(T)));
  return static_cast<bool>(in);
}

/// Writes one self-describing OIPAMRR2 blob at the stream position
/// (shared by the collection-level and store-snapshot formats). The
/// format predates the 32-bit in-memory layout and keeps its roots
/// array and int64 offsets.
void WriteCollectionBlob(std::ofstream& out, const MrrCollection& mrr) {
  WritePod(out, kMagicV2);
  WritePod(out, static_cast<int64_t>(mrr.theta()));
  WritePod(out, static_cast<int32_t>(mrr.num_pieces()));
  WritePod(out, static_cast<int32_t>(mrr.num_vertices()));
  WritePod(out, static_cast<uint64_t>(mrr.base_seed()));
  WritePod(out, static_cast<int32_t>(mrr.model()));
  WritePod(out, static_cast<int32_t>(mrr.extendable() ? 1 : 0));

  std::vector<VertexId> roots(mrr.theta());
  for (int64_t i = 0; i < mrr.theta(); ++i) roots[i] = mrr.root(i);
  WriteVector(out, roots);

  std::vector<int64_t> offsets;
  std::vector<VertexId> nodes;
  offsets.reserve(mrr.theta() * mrr.num_pieces() + 1);
  offsets.push_back(0);
  for (int64_t i = 0; i < mrr.theta(); ++i) {
    for (int j = 0; j < mrr.num_pieces(); ++j) {
      const auto set = mrr.Set(i, j);
      nodes.insert(nodes.end(), set.begin(), set.end());
      offsets.push_back(static_cast<int64_t>(nodes.size()));
    }
  }
  WriteVector(out, offsets);
  WriteVector(out, nodes);
}

/// Reads `size` on-disk int64 offsets into 32-bit storage, checking as
/// it goes that they start at 0, strictly increase (no RR set is empty)
/// and stay within the member ceiling.
Status ReadOffsets(std::ifstream& in, const std::string& path, uint64_t size,
                   DefaultInitVector<uint32_t>* offsets) {
  offsets->resize(size);
  constexpr uint64_t kChunk = 4096;
  int64_t chunk[kChunk];
  int64_t previous = -1;
  for (uint64_t done = 0; done < size;) {
    const uint64_t count = std::min(kChunk, size - done);
    in.read(reinterpret_cast<char*>(chunk),
            static_cast<std::streamsize>(count * sizeof(int64_t)));
    if (!in) return Status::InvalidArgument(path + ": truncated MRR arrays");
    for (uint64_t k = 0; k < count; ++k) {
      const int64_t offset = chunk[k];
      if (done + k == 0 && offset != 0) {
        return Status::InvalidArgument(path + ": offsets must start at 0");
      }
      if (offset <= previous) {
        return Status::InvalidArgument(
            path + ": offsets must strictly increase (no empty RR set)");
      }
      if (offset > MrrCollection::kMaxMembers) {
        return Status::InvalidArgument(
            path + ": offsets exceed the 32-bit member layout");
      }
      (*offsets)[done + k] = static_cast<uint32_t>(offset);
      previous = offset;
    }
    done += count;
  }
  return Status::Ok();
}

/// Reads and validates one OIPAMRR2 blob at the stream position; any
/// other magic is rejected. The in-memory layout is narrower than the
/// file: blobs past its ceilings (theta, memberships, offsets above
/// 2^32 - 1, more than kMaxPieces pieces) are rejected, and so are
/// roots that differ from their sets' first members, which is where
/// the collection keeps them. `indexed` selects whether the loaded
/// collection gets an inverted index.
StatusOr<MrrCollection> ReadCollectionBlob(std::ifstream& in,
                                           const std::string& path,
                                           bool indexed) {
  uint64_t magic = 0;
  if (!ReadPod(in, &magic) || magic != kMagicV2) {
    return Status::InvalidArgument(path + ": bad MRR magic");
  }
  int64_t theta = 0;
  int32_t pieces = 0, n = 0;
  if (!ReadPod(in, &theta) || !ReadPod(in, &pieces) || !ReadPod(in, &n) ||
      theta < 0 || pieces <= 0 || n < 0) {
    return Status::InvalidArgument(path + ": bad MRR header");
  }
  if (theta > MrrCollection::kMaxSamples) {
    return Status::InvalidArgument(
        path + ": theta exceeds the 32-bit sample-id layout");
  }
  if (pieces > MrrCollection::kMaxPieces) {
    return Status::InvalidArgument(
        path + ": pieces exceed the " +
        std::to_string(MrrCollection::kMaxPieces) + "-piece ceiling");
  }
  uint64_t base_seed = 0;
  int32_t model_raw = 0;
  int32_t extendable_raw = 0;
  if (!ReadPod(in, &base_seed) || !ReadPod(in, &model_raw) ||
      !ReadPod(in, &extendable_raw) || model_raw < 0 || model_raw > 1 ||
      extendable_raw < 0 || extendable_raw > 1) {
    return Status::InvalidArgument(path + ": bad MRR provenance header");
  }
  // Every RR set holds at least its root, so more sets than the member
  // ceiling cannot fit either. Sizes are checked before allocating.
  const uint64_t sets = static_cast<uint64_t>(theta) * pieces;
  if (sets > static_cast<uint64_t>(MrrCollection::kMaxMembers)) {
    return Status::InvalidArgument(
        path + ": RR sets exceed the 32-bit member layout");
  }
  DefaultInitVector<VertexId> roots;
  DefaultInitVector<uint32_t> offsets;
  DefaultInitVector<VertexId> nodes;
  uint64_t size = 0;
  if (!ReadPod(in, &size)) {
    return Status::InvalidArgument(path + ": truncated MRR arrays");
  }
  if (size != static_cast<uint64_t>(theta)) {
    return Status::InvalidArgument(path + ": inconsistent MRR sizes");
  }
  if (!ReadElements(in, size, &roots) || !ReadPod(in, &size)) {
    return Status::InvalidArgument(path + ": truncated MRR arrays");
  }
  if (size != sets + 1) {
    return Status::InvalidArgument(path + ": inconsistent MRR sizes");
  }
  OIPA_RETURN_IF_ERROR(ReadOffsets(in, path, size, &offsets));
  if (!ReadPod(in, &size)) {
    return Status::InvalidArgument(path + ": truncated MRR arrays");
  }
  if (size != offsets.back()) {
    return Status::InvalidArgument(path + ": inconsistent MRR sizes");
  }
  if (!ReadElements(in, size, &nodes)) {
    return Status::InvalidArgument(path + ": truncated MRR arrays");
  }
  for (VertexId v : nodes) {
    if (v < 0 || v >= n) {
      return Status::InvalidArgument(path + ": member out of range");
    }
  }
  for (VertexId r : roots) {
    if (r < 0 || r >= n) {
      return Status::InvalidArgument(path + ": root out of range");
    }
  }
  for (int64_t i = 0; i < theta; ++i) {
    for (int j = 0; j < pieces; ++j) {
      if (nodes[offsets[i * pieces + j]] != roots[i]) {
        return Status::InvalidArgument(
            path + ": sample " + std::to_string(i) +
            "'s root is not the first member of its RR sets");
      }
    }
  }
  return MrrCollection::FromParts(
      theta, pieces, n, std::move(offsets), std::move(nodes), base_seed,
      static_cast<DiffusionModel>(model_raw), extendable_raw != 0, indexed);
}

}  // namespace

Status SaveMrrCollection(const MrrCollection& mrr,
                         const std::string& path) {
  if (FaultInjector::ShouldFail("io.save")) return InjectedFault("io.save");
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  WriteCollectionBlob(out, mrr);
  if (!out) return Status::IoError("write failure on " + path);
  return Status::Ok();
}

StatusOr<MrrCollection> LoadMrrCollection(const std::string& path) {
  if (FaultInjector::ShouldFail("io.load")) return InjectedFault("io.load");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  return ReadCollectionBlob(in, path, /*indexed=*/true);
}

Status SaveSampleStore(const SampleStore& store, const std::string& path) {
  if (FaultInjector::ShouldFail("io.save")) return InjectedFault("io.save");
  // One snapshot for the whole write: both collections come from the
  // same generation even if the store grows mid-save. Waits for a
  // holdout that is still sampling.
  const SampleSnapshot snap = store.snapshot();
  const std::shared_ptr<const MrrCollection> holdout = snap.holdout();
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  WritePod(out, kMagicStore);
  WritePod(out, static_cast<int32_t>(holdout == nullptr ? 0 : 1));
  WriteCollectionBlob(out, *snap.mrr);
  if (holdout != nullptr) WriteCollectionBlob(out, *holdout);
  if (!out) return Status::IoError("write failure on " + path);
  return Status::Ok();
}

StatusOr<std::shared_ptr<SampleStore>> LoadSampleStore(
    const std::string& path,
    std::shared_ptr<const std::vector<InfluenceGraph>> pieces) {
  if (FaultInjector::ShouldFail("io.load")) return InjectedFault("io.load");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  uint64_t magic = 0;
  if (!ReadPod(in, &magic) || magic != kMagicStore) {
    return Status::InvalidArgument(path + ": bad store-snapshot magic");
  }
  int32_t has_holdout = 0;
  if (!ReadPod(in, &has_holdout) || has_holdout < 0 || has_holdout > 1) {
    return Status::InvalidArgument(path + ": bad store-snapshot header");
  }
  StatusOr<MrrCollection> mrr =
      ReadCollectionBlob(in, path, /*indexed=*/true);
  if (!mrr.ok()) return mrr.status();
  if (pieces != nullptr) {
    // Catch a pieces/snapshot mismatch here as a Status — otherwise it
    // would surface as a CHECK-abort inside the first Grow().
    if (static_cast<int>(pieces->size()) != mrr->num_pieces()) {
      return Status::InvalidArgument(
          path + ": snapshot has " + std::to_string(mrr->num_pieces()) +
          " pieces but " + std::to_string(pieces->size()) +
          " piece graphs were supplied");
    }
    if (!pieces->empty() &&
        (*pieces)[0].graph().num_vertices() != mrr->num_vertices()) {
      return Status::InvalidArgument(
          path + ": snapshot covers " +
          std::to_string(mrr->num_vertices()) +
          " vertices but the piece graphs have " +
          std::to_string((*pieces)[0].graph().num_vertices()));
    }
  }
  std::shared_ptr<const MrrCollection> holdout;
  if (has_holdout == 1) {
    // The holdout only scores finished plans: no index (sample_store.h).
    StatusOr<MrrCollection> loaded =
        ReadCollectionBlob(in, path, /*indexed=*/false);
    if (!loaded.ok()) return loaded.status();
    if (loaded->num_pieces() != mrr->num_pieces() ||
        loaded->num_vertices() != mrr->num_vertices()) {
      // Same guard as above for the holdout blob: a mismatched file
      // must be a Status, not a later CHECK-abort in Grow().
      return Status::InvalidArgument(
          path + ": holdout blob shape (" +
          std::to_string(loaded->num_pieces()) + " pieces, " +
          std::to_string(loaded->num_vertices()) +
          " vertices) does not match the in-sample blob");
    }
    holdout = std::make_shared<const MrrCollection>(
        std::move(loaded).value());
  }
  return SampleStore::Adopt(
      std::move(pieces),
      std::make_shared<const MrrCollection>(std::move(mrr).value()),
      holdout);
}

}  // namespace oipa
