// Reproduces the Section-7 preprocessing comparison: the time to build
// each statistics artifact (Shapes Annotator vs Characteristic Sets vs
// SumRDF summaries) and the artifact sizes. The paper reports e.g. LUBM:
// annotator 16 min vs CS 6.2 h vs SumRDF 4.5 min-but-GB-sized, and a
// 45 KB -> 68 KB shapes file; the *ratios* are the reproduction target.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "bench_telemetry.h"
#include "datagen/yago.h"
#include "rdf/ntriples.h"
#include "shacl/generator.h"
#include "shacl/shapes_io.h"
#include "stats/annotator.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace shapestats;

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

uint64_t Fnv1a(std::string_view s, uint64_t h = kFnvOffset) {
  for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h;
}

// Byte-order-independent: hashes the id's four bytes low to high.
uint64_t Fnv1aId(rdf::TermId id, uint64_t h) {
  for (int shift = 0; shift < 32; shift += 8) {
    h = (h ^ ((id >> shift) & 0xffu)) * 1099511628211ull;
  }
  return h;
}

// Timings and digest of one N-Triples load.
struct LoadRun {
  double parse_ms = 0;
  double finalize_ms = 0;
  uint64_t digest = 0;
};

// Loads N-Triples into a fresh graph with `load` and finalizes it on the
// shared pool, timing both. The digest covers the dictionary keys in id
// order and the finalized SPO array, which pins the ids the loader assigns
// as well as the triples.
template <typename Load>
LoadRun TimedLoad(Load load) {
  LoadRun run;
  rdf::Graph g;
  Timer timer;
  Status st = load(&g);
  run.parse_ms = timer.ElapsedMs();
  if (!st.ok()) {
    std::fprintf(stderr, "N-Triples load failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  timer.Reset();
  g.Finalize();
  run.finalize_ms = timer.ElapsedMs();
  uint64_t h = kFnvOffset;
  for (rdf::TermId id = 1; id <= g.dict().size(); ++id) {
    h = Fnv1a(g.dict().ToNTriples(id), h);
    h = Fnv1a("\n", h);
  }
  for (const rdf::Triple& t : g.triples()) {
    h = Fnv1aId(t.o, Fnv1aId(t.p, Fnv1aId(t.s, h)));
  }
  run.digest = h;
  return run;
}

// One Graph::Match probe; unset positions are wildcards.
struct Probe {
  rdf::OptId s, p, o;
};

// A seeded probe set over every bound signature. Bound values come from
// sampled triples, so most probes hit; each signature also gets probes whose
// values are absent from the probed position: kInvalidTermId, ids past the
// dictionary (including the largest 32-bit id), and ids drawn from another
// position of a sampled triple. Raw mt19937_64 output keeps the set the same
// on every standard library.
std::vector<Probe> MatchProbes(const rdf::Graph& g, uint64_t seed) {
  std::vector<Probe> probes;
  std::span<const rdf::Triple> triples = g.triples();
  if (triples.empty()) return probes;
  Rng rng(seed);
  auto sample = [&]() -> const rdf::Triple& {
    return triples[rng.engine()() % triples.size()];
  };
  const rdf::TermId past = static_cast<rdf::TermId>(g.dict().size()) + 1;
  const rdf::TermId absent[] = {rdf::kInvalidTermId, past, past + 1000,
                                ~rdf::TermId{0}};
  probes.push_back({});  // the full scan
  for (int mask = 1; mask < 8; ++mask) {
    const bool bs = mask & 4, bp = mask & 2, bo = mask & 1;
    auto sampled = [&] {
      const rdf::Triple& t = sample();
      return Probe{bs ? rdf::OptId(t.s) : std::nullopt,
                   bp ? rdf::OptId(t.p) : std::nullopt,
                   bo ? rdf::OptId(t.o) : std::nullopt};
    };
    // (?,P,?) runs are large; a few probes cover every predicate run often.
    const int hits = mask == 2 ? 64 : 2000;
    for (int i = 0; i < hits; ++i) probes.push_back(sampled());
    for (int pos = 0; pos < 3; ++pos) {
      if (!(mask & (4 >> pos))) continue;
      auto with = [&](rdf::TermId id) {
        Probe probe = sampled();
        (pos == 0 ? probe.s : pos == 1 ? probe.p : probe.o) = id;
        probes.push_back(probe);
      };
      for (rdf::TermId id : absent) with(id);
      // Ids from the other two positions: usually absent from this one.
      for (int i = 0; i < 100; ++i) {
        const rdf::Triple& t = sample();
        const rdf::TermId ids[] = {t.s, t.p, t.o};
        with(ids[(pos + 1 + i % 2) % 3]);
      }
    }
  }
  return probes;
}

// Digest over the contents and order of every probe's span (sizes included,
// so an empty span is not confused with a missing one), and the mean time of
// one Match call over the probe set.
uint64_t MatchDigest(const rdf::Graph& g, const std::vector<Probe>& probes,
                     double* ns_per_probe) {
  uint64_t h = kFnvOffset;
  for (const Probe& probe : probes) {
    std::span<const rdf::Triple> run = g.Match(probe.s, probe.p, probe.o);
    h = Fnv1aId(static_cast<rdf::TermId>(run.size()), h);
    for (const rdf::Triple& t : run) {
      h = Fnv1aId(t.o, Fnv1aId(t.p, Fnv1aId(t.s, h)));
    }
  }
  constexpr int kRounds = 20;
  uint64_t sink = 0;
  Timer timer;
  for (int round = 0; round < kRounds; ++round) {
    for (const Probe& probe : probes) {
      sink += g.Match(probe.s, probe.p, probe.o).size();
    }
  }
  const double ms = timer.ElapsedMs();
  // Uses the sum, so the timed calls cannot be optimized away.
  if (sink == 0) std::printf("(no probe matched)\n");
  *ns_per_probe = ms * 1e6 / (static_cast<double>(probes.size()) * kRounds);
  return h;
}

struct ScalingRun {
  double finalize_ms = 0;
  double stats_ms = 0;
  double annotate_ms = 0;
  uint64_t digest = 0;
  double TotalMs() const { return finalize_ms + stats_ms + annotate_ms; }
};

// One full preprocessing pipeline (finalize + global stats + shape
// annotation) on a pool of the given size, over a freshly generated
// YAGO-style graph. The digest covers both statistics artifacts, so any
// thread-count-dependent divergence is caught.
ScalingRun RunPreprocessing(unsigned threads) {
  datagen::YagoOptions opts;
  opts.finalize = false;
  rdf::Graph g = datagen::GenerateYago(opts);
  util::ThreadPool pool(threads);
  ScalingRun run;

  Timer timer;
  g.Finalize(&pool);
  run.finalize_ms = timer.ElapsedMs();

  timer.Reset();
  stats::GlobalStats gs = stats::GlobalStats::Compute(g, &pool);
  run.stats_ms = timer.ElapsedMs();

  auto shapes = shacl::GenerateShapes(g);
  if (!shapes.ok()) {
    std::fprintf(stderr, "shape generation failed: %s\n",
                 shapes.status().ToString().c_str());
    std::abort();
  }
  timer.Reset();
  auto report = stats::AnnotateShapes(g, &*shapes, &pool);
  if (!report.ok()) {
    std::fprintf(stderr, "annotation failed: %s\n",
                 report.status().ToString().c_str());
    std::abort();
  }
  run.annotate_ms = timer.ElapsedMs();

  run.digest = Fnv1a(shacl::WriteShapesTurtle(*shapes),
                     Fnv1a(stats::WriteVoidTurtle(gs, g.dict())));
  return run;
}

}  // namespace

int main() {
  bench::BenchTelemetry telemetry("preprocessing");
  std::printf("=== Section 7: preprocessing time and artifact size ===\n\n");

  struct Row {
    const char* name;
    bench::Dataset ds;
  };
  std::vector<bench::Dataset> datasets;
  datasets.push_back(bench::BuildLubm());
  datasets.push_back(bench::BuildWatDiv());
  datasets.push_back(bench::BuildYago());

  TablePrinter time_table({"dataset", "triples", "annotator (ms)", "CS build (ms)",
                           "SumRDF build (ms)", "annotator speedup vs CS"});
  for (const bench::Dataset& ds : datasets) {
    double speedup = ds.cs->build_ms() / std::max(ds.annotate_ms, 0.001);
    time_table.AddRow({ds.name, WithCommas(ds.graph.NumTriples()),
                       CompactDouble(ds.annotate_ms),
                       CompactDouble(ds.cs->build_ms()),
                       CompactDouble(ds.sumrdf->build_ms()),
                       CompactDouble(speedup) + "x"});
  }
  time_table.Print();

  std::printf("\n");
  TablePrinter size_table({"dataset", "plain shapes (KB)", "extended shapes (KB)",
                           "CS index (KB)", "SumRDF summary (KB)"});
  for (const bench::Dataset& ds : datasets) {
    size_table.AddRow({ds.name,
                       CompactDouble(ds.shapes_plain_bytes / 1024.0),
                       CompactDouble(ds.shapes_extended_bytes / 1024.0),
                       CompactDouble(ds.cs->MemoryBytes() / 1024.0),
                       CompactDouble(ds.sumrdf->MemoryBytes() / 1024.0)});
  }
  size_table.Print();

  std::printf(
      "\nPaper's shape check: extending shapes costs ~1.5x the plain shapes\n"
      "file (paper: 45 KB -> 68 KB) and is substantially cheaper to build\n"
      "than Characteristic Sets (paper: 2-4x less preprocessing time), while\n"
      "CS/SumRDF artifacts are orders of magnitude larger than the shapes.\n");

  // Per-dataset statistics digests. These depend on the shared pool (sized
  // by SHAPESTATS_THREADS), so the CI bench smoke step runs this binary
  // under different thread counts and diffs the digest lines.
  std::printf("\n");
  for (const bench::Dataset& ds : datasets) {
    uint64_t digest = Fnv1a(shacl::WriteShapesTurtle(ds.shapes),
                            Fnv1a(stats::WriteVoidTurtle(ds.gs, ds.graph.dict())));
    std::printf("stats digest %s: %016llx\n", ds.name.c_str(),
                static_cast<unsigned long long>(digest));
    telemetry.Digest("stats." + ds.name, digest);
    telemetry.Counter("triples." + ds.name,
                      static_cast<double>(ds.graph.NumTriples()));
    telemetry.Counter("shapes_extended_kb." + ds.name,
                      ds.shapes_extended_bytes / 1024.0);
    // The term dictionary beside the statistics: keys, offsets, slots.
    const double dict_kb = ds.graph.dict().MemoryBytes() / 1024.0;
    std::printf("dictionary %s: %zu terms, %.1f KB\n", ds.name.c_str(),
                ds.graph.dict().size(), dict_kb);
    telemetry.Counter("dict_kb." + ds.name, dict_kb);
    telemetry.Timing("annotate_ms." + ds.name, ds.annotate_ms);
  }

  // Index lookups: a seeded probe set over every bound signature, absent
  // ids included. The digest pins the contents and order of every span
  // Graph::Match returns, so an index change that moves a single triple (or
  // depends on the pool size) shows up here.
  std::printf("\n");
  for (const bench::Dataset& ds : datasets) {
    double ns = 0;
    const uint64_t digest =
        MatchDigest(ds.graph, MatchProbes(ds.graph, /*seed=*/18), &ns);
    std::printf("match digest %s: %016llx\n", ds.name.c_str(),
                static_cast<unsigned long long>(digest));
    std::printf("match time %s: %.1f ns per probe\n", ds.name.c_str(), ns);
    telemetry.Digest("match." + ds.name, digest);
    telemetry.Timing("match_ns." + ds.name, ns);
  }

  // Load path: each dataset is serialized as N-Triples (untimed), parsed
  // back from memory and loaded from a file holding the same text, all on
  // the shared pool (timed). The digest catches any change in the ids the
  // loader assigns, for instance from compiler-dependent interning order;
  // the file load must reproduce it. The file is then loaded again on pools
  // of 1, 2 and 4 threads, which cut it into different chunks
  // (rdf::NTriplesChunks): each must reproduce the digest too, and the
  // "load chunks" line shows how many chunks every load parsed.
  std::printf("\n");
  const unsigned load_threads[] = {1, 2, 4};
  std::vector<std::unique_ptr<util::ThreadPool>> load_pools;
  for (unsigned threads : load_threads) {
    load_pools.push_back(std::make_unique<util::ThreadPool>(threads));
  }
  for (const bench::Dataset& ds : datasets) {
    const std::string text = rdf::WriteNTriples(ds.graph);
    const LoadRun run =
        TimedLoad([&](rdf::Graph* g) { return rdf::ParseNTriples(text, g); });
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("shapestats_load_" + ds.name + "_" + std::to_string(getpid()) + ".nt"))
            .string();
    std::ofstream(path, std::ios::binary) << text;
    const LoadRun file_run =
        TimedLoad([&](rdf::Graph* g) { return rdf::LoadNTriplesFile(path, g); });
    std::vector<LoadRun> pool_runs;
    for (const auto& pool : load_pools) {
      pool_runs.push_back(TimedLoad([&](rdf::Graph* g) {
        return rdf::LoadNTriplesFile(path, g, pool.get());
      }));
    }
    std::filesystem::remove(path);
    std::printf("load digest %s: %016llx\n", ds.name.c_str(),
                static_cast<unsigned long long>(run.digest));
    std::printf("load time %s: parse %.1f ms, file %.1f ms, finalize %.1f ms\n",
                ds.name.c_str(), run.parse_ms, file_run.parse_ms, run.finalize_ms);
    std::printf("load chunks %s: shared %zu", ds.name.c_str(),
                rdf::NTriplesChunks(text, util::ThreadPool::Shared().num_threads())
                    .size());
    for (unsigned threads : load_threads) {
      std::printf(", t%u %zu", threads, rdf::NTriplesChunks(text, threads).size());
    }
    std::printf("\nload file time %s:", ds.name.c_str());
    for (size_t i = 0; i < pool_runs.size(); ++i) {
      std::printf("%s t%u %.1f ms", i ? "," : "", load_threads[i],
                  pool_runs[i].parse_ms);
    }
    std::printf("\n");
    // Pool size 0 stands for the shared pool.
    std::vector<std::pair<unsigned, uint64_t>> loads = {{0, file_run.digest}};
    for (size_t i = 0; i < pool_runs.size(); ++i) {
      loads.emplace_back(load_threads[i], pool_runs[i].digest);
    }
    for (const auto& [threads, digest] : loads) {
      if (digest == run.digest) continue;
      std::fprintf(stderr,
                   "FATAL: loading %s from a file (pool: %s) gave digest "
                   "%016llx, not %016llx\n",
                   ds.name.c_str(),
                   threads == 0 ? "shared" : std::to_string(threads).c_str(),
                   static_cast<unsigned long long>(digest),
                   static_cast<unsigned long long>(run.digest));
      return 1;
    }
    telemetry.Digest("load." + ds.name, run.digest);
    telemetry.Timing("load_ms." + ds.name, run.parse_ms);
    telemetry.Timing("load_file_ms." + ds.name, file_run.parse_ms);
    for (size_t i = 0; i < pool_runs.size(); ++i) {
      telemetry.Timing("load_file_ms.t" + std::to_string(load_threads[i]) + "." +
                           ds.name,
                       pool_runs[i].parse_ms);
    }
    telemetry.Timing("finalize_ms." + ds.name, run.finalize_ms);
  }

  // Thread-scaling of the whole preprocessing pipeline on the YAGO-style
  // dataset (the paper's cheap-preprocessing claim, now also a parallel
  // one). Each row regenerates the graph and runs finalize + global stats +
  // shape annotation on its own pool; output must be byte-identical.
  std::printf("\n=== Parallel preprocessing: thread scaling (YAGO) ===\n");
  std::printf("(hardware concurrency: %u — speedup is bounded by available "
              "cores)\n\n",
              std::thread::hardware_concurrency());
  const unsigned thread_counts[] = {1, 2, 4};
  ScalingRun runs[3];
  TablePrinter scaling({"threads", "finalize (ms)", "global stats (ms)",
                        "annotate (ms)", "total (ms)", "speedup"});
  for (size_t i = 0; i < 3; ++i) {
    runs[i] = RunPreprocessing(thread_counts[i]);
    double speedup = runs[0].TotalMs() / std::max(runs[i].TotalMs(), 0.001);
    scaling.AddRow({std::to_string(thread_counts[i]),
                    CompactDouble(runs[i].finalize_ms),
                    CompactDouble(runs[i].stats_ms),
                    CompactDouble(runs[i].annotate_ms),
                    CompactDouble(runs[i].TotalMs()),
                    CompactDouble(speedup) + "x"});
  }
  scaling.Print();
  for (size_t i = 1; i < 3; ++i) {
    if (runs[i].digest != runs[0].digest) {
      std::fprintf(stderr,
                   "FATAL: statistics diverged between threads=1 and "
                   "threads=%u (digest %016llx vs %016llx)\n",
                   thread_counts[i],
                   static_cast<unsigned long long>(runs[0].digest),
                   static_cast<unsigned long long>(runs[i].digest));
      return 1;
    }
  }
  std::printf("\nstatistics identical across thread counts (digest %016llx)\n",
              static_cast<unsigned long long>(runs[0].digest));
  telemetry.Digest("scaling.yago", runs[0].digest);
  for (size_t i = 0; i < 3; ++i) {
    telemetry.Timing("scaling.t" + std::to_string(thread_counts[i]) + ".total_ms",
                     runs[i].TotalMs());
  }
  return 0;
}
