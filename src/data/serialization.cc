#include "data/serialization.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

#include "util/logging.h"

namespace oipa {

namespace {

constexpr uint64_t kMagic = 0x4f49504144533031ULL;  // "OIPADS01"

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

template <typename T>
bool ReadVector(std::ifstream& in, std::vector<T>* v) {
  uint64_t size = 0;
  if (!ReadPod(in, &size)) return false;
  if (size > (1ULL << 33)) return false;  // sanity bound
  v->resize(size);
  in.read(reinterpret_cast<char*>(v->data()),
          static_cast<std::streamsize>(size * sizeof(T)));
  return static_cast<bool>(in);
}

}  // namespace

Status SaveDataset(const Dataset& dataset, const std::string& path) {
  OIPA_CHECK(dataset.graph != nullptr);
  OIPA_CHECK(dataset.probs != nullptr);
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");

  WritePod(out, kMagic);
  WritePod(out, static_cast<uint64_t>(dataset.name.size()));
  out.write(dataset.name.data(),
            static_cast<std::streamsize>(dataset.name.size()));
  WritePod(out, static_cast<int32_t>(dataset.num_topics));

  const Graph& g = *dataset.graph;
  WritePod(out, static_cast<int32_t>(g.num_vertices()));
  std::vector<int32_t> srcs(g.num_edges()), dsts(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    srcs[e] = g.edge(e).src;
    dsts[e] = g.edge(e).dst;
  }
  WriteVector(out, srcs);
  WriteVector(out, dsts);

  // Probabilities: per edge entry counts followed by flat entries.
  std::vector<int32_t> counts(g.num_edges());
  std::vector<int32_t> topics;
  std::vector<float> values;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto entries = dataset.probs->EdgeEntries(e);
    counts[e] = static_cast<int32_t>(entries.size());
    for (const TopicProb& tp : entries) {
      topics.push_back(tp.topic);
      values.push_back(tp.prob);
    }
  }
  WriteVector(out, counts);
  WriteVector(out, topics);
  WriteVector(out, values);
  WriteVector(out, dataset.promoter_pool);

  if (!out) return Status::IoError("write failure on " + path);
  return Status::Ok();
}

StatusOr<Dataset> LoadDataset(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);

  uint64_t magic = 0;
  if (!ReadPod(in, &magic) || magic != kMagic) {
    return Status::InvalidArgument(path + ": bad magic");
  }
  Dataset ds;
  uint64_t name_size = 0;
  if (!ReadPod(in, &name_size) || name_size > 4096) {
    return Status::InvalidArgument(path + ": bad name length");
  }
  ds.name.resize(name_size);
  in.read(ds.name.data(), static_cast<std::streamsize>(name_size));
  int32_t num_topics = 0;
  if (!ReadPod(in, &num_topics) || num_topics <= 0) {
    return Status::InvalidArgument(path + ": bad topic count");
  }
  ds.num_topics = num_topics;

  int32_t n = 0;
  if (!ReadPod(in, &n) || n < 0) {
    return Status::InvalidArgument(path + ": bad vertex count");
  }
  std::vector<int32_t> srcs, dsts;
  if (!ReadVector(in, &srcs) || !ReadVector(in, &dsts) ||
      srcs.size() != dsts.size()) {
    return Status::InvalidArgument(path + ": bad edge arrays");
  }
  std::vector<Edge> edges(srcs.size());
  for (size_t e = 0; e < srcs.size(); ++e) {
    if (srcs[e] < 0 || srcs[e] >= n || dsts[e] < 0 || dsts[e] >= n) {
      return Status::InvalidArgument(path + ": edge endpoint out of range");
    }
    edges[e] = {srcs[e], dsts[e]};
  }
  ds.graph = std::make_unique<Graph>(n, std::move(edges));

  std::vector<int32_t> counts, topics;
  std::vector<float> values;
  if (!ReadVector(in, &counts) || !ReadVector(in, &topics) ||
      !ReadVector(in, &values) || topics.size() != values.size() ||
      counts.size() != static_cast<size_t>(ds.graph->num_edges())) {
    return Status::InvalidArgument(path + ": bad probability arrays");
  }
  ds.probs = std::make_unique<EdgeTopicProbs>(ds.graph->num_edges(),
                                              ds.num_topics);
  size_t cursor = 0;
  for (EdgeId e = 0; e < ds.graph->num_edges(); ++e) {
    if (counts[e] < 0 || cursor + counts[e] > topics.size()) {
      return Status::InvalidArgument(path + ": truncated entries");
    }
    std::vector<TopicProb> entries;
    entries.reserve(counts[e]);
    for (int32_t i = 0; i < counts[e]; ++i, ++cursor) {
      if (topics[cursor] < 0 || topics[cursor] >= ds.num_topics ||
          values[cursor] < 0.0f || values[cursor] > 1.0f) {
        return Status::InvalidArgument(path + ": invalid entry");
      }
      entries.push_back({topics[cursor], values[cursor]});
    }
    ds.probs->SetEdge(e, entries);
  }
  if (!ReadVector(in, &ds.promoter_pool)) {
    return Status::InvalidArgument(path + ": bad promoter pool");
  }
  for (VertexId v : ds.promoter_pool) {
    if (v < 0 || v >= n) {
      return Status::InvalidArgument(path + ": promoter out of range");
    }
  }
  return ds;
}

}  // namespace oipa
