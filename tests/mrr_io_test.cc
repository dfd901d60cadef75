#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "oipa/adoption.h"
#include "rrset/mrr_io.h"
#include "topic/campaign.h"
#include "topic/prob_models.h"
#include "util/fault_injector.h"
#include "util/random.h"

namespace oipa {
namespace {

const std::vector<InfluenceGraph>& SharedPieces() {
  static const Graph* graph =
      new Graph(GenerateErdosRenyi(40, 0.1, 7));
  static const EdgeTopicProbs* probs = new EdgeTopicProbs(
      AssignWeightedCascadeTopics(*graph, 4, 2.0, 11));
  static const std::vector<InfluenceGraph>* pieces = [] {
    Rng rng(13);
    static const Campaign campaign =
        Campaign::SampleUniformPieces(3, 4, &rng);
    return new std::vector<InfluenceGraph>(
        BuildPieceGraphs(*graph, *probs, campaign));
  }();
  return *pieces;
}

MrrCollection MakeCollection(int64_t theta, uint64_t seed) {
  return MrrCollection::Generate(SharedPieces(), theta, seed);
}

TEST(MrrIoTest, RoundtripPreservesEverything) {
  const MrrCollection original = MakeCollection(800, 17);
  const std::string path = testing::TempDir() + "/mrr_roundtrip.bin";
  ASSERT_TRUE(SaveMrrCollection(original, path).ok());
  auto loaded = LoadMrrCollection(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->theta(), original.theta());
  ASSERT_EQ(loaded->num_pieces(), original.num_pieces());
  ASSERT_EQ(loaded->num_vertices(), original.num_vertices());
  for (int64_t i = 0; i < original.theta(); ++i) {
    EXPECT_EQ(loaded->root(i), original.root(i));
    for (int j = 0; j < original.num_pieces(); ++j) {
      const auto a = original.Set(i, j);
      const auto b = loaded->Set(i, j);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
  }
  std::remove(path.c_str());
}

TEST(MrrIoTest, ReloadedCollectionGivesIdenticalEstimates) {
  const MrrCollection original = MakeCollection(1500, 19);
  const std::string path = testing::TempDir() + "/mrr_estimates.bin";
  ASSERT_TRUE(SaveMrrCollection(original, path).ok());
  auto loaded = LoadMrrCollection(path);
  ASSERT_TRUE(loaded.ok());
  const LogisticAdoptionModel model(2.0, 1.0);
  AssignmentPlan plan(3);
  plan.Add(0, 1);
  plan.Add(1, 5);
  plan.Add(2, 9);
  EXPECT_DOUBLE_EQ(EstimateAdoptionUtility(original, model, plan),
                   EstimateAdoptionUtility(*loaded, model, plan));
  std::remove(path.c_str());
}

TEST(MrrIoTest, MissingFileFails) {
  EXPECT_FALSE(LoadMrrCollection("/no/such/mrr.bin").ok());
}

TEST(MrrIoTest, GarbageRejected) {
  const std::string path = testing::TempDir() + "/mrr_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not an MRR snapshot at all";
  }
  auto loaded = LoadMrrCollection(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(MrrIoTest, TruncationRejected) {
  const MrrCollection original = MakeCollection(300, 23);
  const std::string path = testing::TempDir() + "/mrr_trunc.bin";
  ASSERT_TRUE(SaveMrrCollection(original, path).ok());
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const long size = static_cast<long>(in.tellg());
    in.close();
    ASSERT_EQ(truncate(path.c_str(), size / 3), 0);
  }
  EXPECT_FALSE(LoadMrrCollection(path).ok());
  std::remove(path.c_str());
}

TEST(MrrIoTest, GrownCollectionRoundTripsWithProvenance) {
  // A collection grown across two Extend calls must round-trip exactly,
  // and — because the format stores sampling provenance — the loaded
  // copy must keep growing bit-identically to the original.
  MrrCollection original = MakeCollection(300, 31);
  original.Extend(SharedPieces(), 700);
  const std::string path = testing::TempDir() + "/mrr_grown.bin";
  ASSERT_TRUE(SaveMrrCollection(original, path).ok());
  auto loaded = LoadMrrCollection(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->theta(), original.theta());
  EXPECT_TRUE(loaded->extendable());
  EXPECT_EQ(loaded->base_seed(), original.base_seed());
  EXPECT_EQ(loaded->model(), original.model());
  for (int64_t i = 0; i < original.theta(); ++i) {
    EXPECT_EQ(loaded->root(i), original.root(i));
    for (int j = 0; j < original.num_pieces(); ++j) {
      const auto a = original.Set(i, j);
      const auto b = loaded->Set(i, j);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
  }

  // save -> load -> Extend == Extend on the original.
  original.Extend(SharedPieces(), 1200);
  loaded->Extend(SharedPieces(), 1200);
  for (int64_t i = 700; i < 1200; ++i) {
    EXPECT_EQ(loaded->root(i), original.root(i));
    for (int j = 0; j < original.num_pieces(); ++j) {
      const auto a = original.Set(i, j);
      const auto b = loaded->Set(i, j);
      ASSERT_EQ(a.size(), b.size()) << i;
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << i;
    }
  }
  std::remove(path.c_str());
}

TEST(MrrIoTest, MalformedOffsetsRejected) {
  const MrrCollection original = MakeCollection(50, 37);
  const std::string path = testing::TempDir() + "/mrr_badoff.bin";
  ASSERT_TRUE(SaveMrrCollection(original, path).ok());

  // Header layout (v2): magic(8) theta(8) pieces(4) n(4) seed(8)
  // model(4) extendable(4), then roots [len(8) + data], then offsets
  // [len(8) + data]. Corrupt the first offset to a non-zero value and
  // a middle offset to break monotonicity; both must come back as
  // InvalidArgument statuses, never a crash.
  const std::streamoff header = 8 + 8 + 4 + 4 + 8 + 4 + 4;
  const std::streamoff roots_bytes =
      8 + static_cast<std::streamoff>(original.theta()) * sizeof(VertexId);
  const std::streamoff offsets_data = header + roots_bytes + 8;
  for (const auto& [index, value] :
       std::vector<std::pair<int64_t, int64_t>>{{0, 5}, {10, -3}}) {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(offsets_data + index * 8);
    f.write(reinterpret_cast<const char*>(&value), sizeof(value));
    f.close();
    auto loaded = LoadMrrCollection(path);
    ASSERT_FALSE(loaded.ok()) << "offset[" << index << "] = " << value;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    // Restore the file for the next corruption round.
    ASSERT_TRUE(SaveMrrCollection(original, path).ok());
  }
  std::remove(path.c_str());
}

TEST(MrrIoTest, FromPartsBuildsUsableIndex) {
  // Hand-rolled minimal collection: 2 samples, 1 piece, 3 vertices.
  MrrCollection mc = MrrCollection::FromParts(
      2, 1, 3, /*offsets=*/{0, 2, 3}, /*nodes=*/{0, 1, 2});
  EXPECT_EQ(mc.theta(), 2);
  EXPECT_EQ(mc.SamplesContaining(0, 1).size(), 1u);
  EXPECT_EQ(mc.SamplesContaining(0, 1)[0], 0);
  EXPECT_EQ(mc.SamplesContaining(0, 2).size(), 1u);
  EXPECT_EQ(mc.SamplesContaining(0, 2)[0], 1);
}

/// A blob in the on-disk format, written field by field the way files
/// were written before the in-memory layout went 32-bit: int64 theta,
/// int32 pieces and n, provenance (absent from the retired v1 format),
/// then size-prefixed roots, int64 offsets and members.
struct LegacyBlob {
  bool v2 = true;
  int64_t theta = 2;
  int32_t pieces = 2;
  int32_t n = 4;
  std::vector<VertexId> roots = {1, 3};
  std::vector<int64_t> offsets = {0, 2, 3, 5, 6};
  std::vector<VertexId> nodes = {1, 0, 1, 3, 2, 3};

  std::string Bytes() const {
    std::string out;
    const auto put = [&out](const auto& value) {
      out.append(reinterpret_cast<const char*>(&value), sizeof(value));
    };
    const auto put_array = [&](const auto& values) {
      put(static_cast<uint64_t>(values.size()));
      for (const auto& value : values) put(value);
    };
    put(v2 ? uint64_t{0x4f4950414d525232ULL} : uint64_t{0x4f4950414d525231ULL});
    put(theta);
    put(pieces);
    put(n);
    if (v2) {
      put(uint64_t{77});  // base seed
      put(int32_t{0});    // IC
      put(int32_t{0});    // not extendable
    }
    put_array(roots);
    put_array(offsets);
    put_array(nodes);
    return out;
  }

  StatusOr<MrrCollection> Load(const std::string& name) const {
    const std::string path = testing::TempDir() + "/" + name;
    std::ofstream(path, std::ios::binary) << Bytes();
    StatusOr<MrrCollection> loaded = LoadMrrCollection(path);
    std::remove(path.c_str());
    return loaded;
  }
};

TEST(MrrIoTest, FilesInTheUnchangedFormatStillLoad) {
  {
    LegacyBlob blob;
    StatusOr<MrrCollection> loaded = blob.Load("mrr_legacy.bin");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->theta(), 2);
    EXPECT_EQ(loaded->root(0), 1);
    EXPECT_EQ(loaded->root(1), 3);
    const auto set = loaded->Set(1, 0);
    EXPECT_EQ(std::vector<VertexId>(set.begin(), set.end()),
              (std::vector<VertexId>{3, 2}));
    EXPECT_EQ(loaded->SamplesContaining(0, 1), (std::vector<int64_t>{0}));
    // Saving writes the same bytes back.
    const std::string path = testing::TempDir() + "/mrr_resaved.bin";
    ASSERT_TRUE(SaveMrrCollection(*loaded, path).ok());
    std::ifstream in(path, std::ios::binary);
    const std::string saved((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(saved, blob.Bytes());
    std::remove(path.c_str());
  }
  {
    // OIPAMRR1 is retired: its magic is refused, not loaded.
    LegacyBlob v1;
    v1.v2 = false;
    const StatusOr<MrrCollection> refused = v1.Load("mrr_v1.bin");
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.status().message().find("bad MRR magic"),
              std::string::npos)
        << refused.status().ToString();
  }
  // A generated collection saves to exactly the legacy byte layout.
  const MrrCollection original = MakeCollection(300, 53);
  LegacyBlob blob;
  blob.theta = original.theta();
  blob.pieces = original.num_pieces();
  blob.n = original.num_vertices();
  blob.roots.clear();
  blob.offsets = {0};
  blob.nodes.clear();
  for (int64_t i = 0; i < original.theta(); ++i) {
    blob.roots.push_back(original.root(i));
    for (int j = 0; j < original.num_pieces(); ++j) {
      const auto set = original.Set(i, j);
      blob.nodes.insert(blob.nodes.end(), set.begin(), set.end());
      blob.offsets.push_back(static_cast<int64_t>(blob.nodes.size()));
    }
  }
  StatusOr<MrrCollection> loaded = blob.Load("mrr_generated_legacy.bin");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(std::equal(loaded->members().begin(), loaded->members().end(),
                         original.members().begin(),
                         original.members().end()));
}

TEST(MrrIoTest, BlobsPastThePieceCeilingAreInvalidArguments) {
  // One sample whose 256 sets each hold just the root: well-formed, but
  // its covered-piece counts would wrap the byte counters.
  LegacyBlob wide;
  wide.theta = 1;
  wide.pieces = 256;
  wide.roots = {1};
  wide.offsets.clear();
  wide.nodes.assign(256, 1);
  for (int64_t s = 0; s <= 256; ++s) wide.offsets.push_back(s);
  const StatusOr<MrrCollection> loaded = wide.Load("mrr_wide.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("pieces exceed"),
            std::string::npos)
      << loaded.status().ToString();
  // 255 pieces still load.
  wide.pieces = 255;
  wide.offsets.pop_back();
  wide.nodes.pop_back();
  const StatusOr<MrrCollection> widest = wide.Load("mrr_widest.bin");
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest->num_pieces(), 255);
}

TEST(MrrIoTest, BlobsPastTheLayoutAreInvalidArgumentsNotAborts) {
  const auto expect_rejected = [](const LegacyBlob& blob,
                                  const std::string& what) {
    const StatusOr<MrrCollection> loaded = blob.Load("mrr_bad_layout.bin");
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(loaded.status().message().find(what), std::string::npos)
        << loaded.status().ToString();
  };
  LegacyBlob theta;
  theta.theta = int64_t{1} << 32;
  expect_rejected(theta, "theta exceeds");
  LegacyBlob sets;
  sets.theta = (int64_t{1} << 31) + 1;
  sets.pieces = 2;
  expect_rejected(sets, "RR sets exceed");
  LegacyBlob offset;
  offset.offsets = {0, 2, 3, 5, int64_t{1} << 32};
  expect_rejected(offset, "offsets exceed");
  LegacyBlob empty_set;
  empty_set.offsets = {0, 2, 2, 4, 6};
  expect_rejected(empty_set, "no empty RR set");
  LegacyBlob root;
  root.roots = {1, 2};
  expect_rejected(root, "root is not the first member");
  LegacyBlob piece_root;
  piece_root.nodes = {1, 0, 0, 3, 2, 3};  // sample 0's piece 1 set
  expect_rejected(piece_root, "root is not the first member");
}

// ------------------------------------------------ store snapshot round-trip

std::shared_ptr<const std::vector<InfluenceGraph>> SharedPiecesPtr() {
  // Non-owning alias of the process-lifetime test pieces.
  return std::shared_ptr<const std::vector<InfluenceGraph>>(
      std::shared_ptr<const std::vector<InfluenceGraph>>(),
      &SharedPieces());
}

TEST(SampleStoreIoTest, StoreSnapshotRoundTripsAndKeepsGrowing) {
  SampleStore::Options options;
  options.theta = 600;
  options.seed = 29;
  auto store = SampleStore::Create(SharedPiecesPtr(), options);
  ASSERT_TRUE(store->Grow(1'200).ok());  // stores may be saved mid-life
  const std::string path = testing::TempDir() + "/store_snapshot.bin";
  ASSERT_TRUE(SaveSampleStore(*store, path).ok());

  auto loaded = LoadSampleStore(path, SharedPiecesPtr());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SampleSnapshot original = store->snapshot();
  const SampleSnapshot reloaded = (*loaded)->snapshot();
  ASSERT_EQ(reloaded.mrr->theta(), 1'200);
  ASSERT_NE(reloaded.holdout(), nullptr);
  EXPECT_EQ(reloaded.holdout()->theta(), 1'200);
  // Like a built store's, the loaded holdout carries no index.
  EXPECT_TRUE(reloaded.mrr->indexed());
  EXPECT_FALSE(reloaded.holdout()->indexed());
  for (int64_t i = 0; i < original.mrr->theta(); ++i) {
    ASSERT_EQ(reloaded.mrr->root(i), original.mrr->root(i));
    for (int j = 0; j < original.mrr->num_pieces(); ++j) {
      const auto a = original.mrr->Set(i, j);
      const auto b = reloaded.mrr->Set(i, j);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
  }
  // Provenance round-trips: growing the loaded store continues the
  // exact same sample stream as growing the original.
  ASSERT_TRUE((*loaded)->CanGrow());
  ASSERT_TRUE((*loaded)->Grow(2'400).ok());
  ASSERT_TRUE(store->Grow(2'400).ok());
  const SampleSnapshot grown_a = store->snapshot();
  const SampleSnapshot grown_b = (*loaded)->snapshot();
  for (int64_t i = 0; i < 2'400; ++i) {
    ASSERT_EQ(grown_a.mrr->root(i), grown_b.mrr->root(i)) << i;
  }
  std::remove(path.c_str());
}

TEST(SampleStoreIoTest, LoadWithoutPiecesIsFrozen) {
  SampleStore::Options options;
  options.theta = 300;
  options.holdout_theta = 0;
  options.seed = 31;
  auto store = SampleStore::Create(SharedPiecesPtr(), options);
  const std::string path = testing::TempDir() + "/store_frozen.bin";
  ASSERT_TRUE(SaveSampleStore(*store, path).ok());
  auto loaded = LoadSampleStore(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->theta(), 300);
  EXPECT_FALSE((*loaded)->has_holdout());
  EXPECT_FALSE((*loaded)->CanGrow());
  EXPECT_EQ((*loaded)->Grow(600).code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(SampleStoreIoTest, RejectsForeignAndGarbageFiles) {
  EXPECT_FALSE(LoadSampleStore("/no/such/store.bin").ok());

  // A bare collection file is not a store snapshot.
  const MrrCollection collection = MakeCollection(100, 37);
  const std::string path = testing::TempDir() + "/store_foreign.bin";
  ASSERT_TRUE(SaveMrrCollection(collection, path).ok());
  const auto as_store = LoadSampleStore(path);
  ASSERT_FALSE(as_store.ok());
  EXPECT_EQ(as_store.status().code(), StatusCode::kInvalidArgument);

  std::ofstream(path, std::ios::binary) << "OIPASTO1 but then garbage";
  EXPECT_FALSE(LoadSampleStore(path).ok());
  std::remove(path.c_str());
}

TEST(MrrIoTest, InjectedIoFaultsSurfaceAsStatusesNotAborts) {
  const MrrCollection collection = MakeCollection(100, 41);
  const std::string path = testing::TempDir() + "/mrr_faulted.bin";
  ASSERT_TRUE(SaveMrrCollection(collection, path).ok());

  // Every io entry point refuses deterministically while armed and
  // recovers the moment the injector is disabled. The on-disk file is
  // untouched by a faulted save (the fault fires before any write).
  ASSERT_TRUE(FaultInjector::Configure("io.save=1.0,io.load=1.0", 1).ok());
  const Status save = SaveMrrCollection(collection, path);
  EXPECT_EQ(save.code(), StatusCode::kInternal);
  EXPECT_NE(save.message().find("io.save"), std::string::npos);
  EXPECT_EQ(LoadMrrCollection(path).status().code(),
            StatusCode::kInternal);

  auto store = SampleStore::Adopt(
      nullptr, std::make_shared<const MrrCollection>(MakeCollection(50, 43)),
      nullptr);
  const std::string store_path = testing::TempDir() + "/store_faulted.bin";
  EXPECT_EQ(SaveSampleStore(*store, store_path).code(),
            StatusCode::kInternal);
  EXPECT_EQ(LoadSampleStore(path).status().code(), StatusCode::kInternal);
  EXPECT_GE(FaultInjector::InjectedCount(), 4);

  FaultInjector::Disable();
  EXPECT_TRUE(LoadMrrCollection(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace oipa
