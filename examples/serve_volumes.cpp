// Serving walk-through: a multi-worker SegmentationServer under load.
//
// Spins up a worker pool sharing one weight set, pushes a burst of
// phantom volumes through it with per-request deadlines, injects one
// deliberately bad input, then drains — printing the typed outcome of
// every request and the server's final statistics. This is the
// robustness contract in miniature: futures resolve to results or
// typed ServeErrors, never hang, and the pool keeps serving around
// individual failures.
//
//   ./examples/serve_volumes [num_workers]
//
// Knobs: DMIS_SERVE_WORKERS / DMIS_SERVE_QUEUE / DMIS_SERVE_DEADLINE_MS
// / DMIS_SERVE_VOXEL_BUDGET, when set, win over the options below.
#include <cstdio>
#include <cstdlib>
#include <future>
#include <limits>
#include <vector>

#include "data/phantom.hpp"
#include "serve/server.hpp"

int main(int argc, char** argv) {
  using namespace dmis;

  nn::UNet3dOptions mopts;
  mopts.in_channels = 4;
  mopts.base_filters = 4;
  mopts.depth = 3;

  serve::ServeOptions options;
  if (argc > 1) options.num_workers = std::atoi(argv[1]);
  if (options.num_workers < 1) options.num_workers = 2;
  options.default_deadline_ms = 10000;

  serve::SegmentationServer server(mopts, /*checkpoint_path=*/"", options);
  std::printf("started server: %d workers, queue %lld, deadline %lldms\n",
              server.options().num_workers,
              static_cast<long long>(server.options().queue_capacity),
              static_cast<long long>(server.options().default_deadline_ms));

  data::PhantomOptions popts;
  popts.depth = 11;
  popts.height = 16;
  popts.width = 16;
  const data::PhantomGenerator gen(popts);

  constexpr int kRequests = 8;
  std::vector<std::future<core::SegmentationResult>> futures;
  std::vector<int> ids;
  for (int i = 0; i < kRequests; ++i) {
    data::Volume image = gen.generate(i).image;
    if (i == 3) {
      // A corrupt acquisition: the server must fail exactly this
      // request with a typed error, not crash or poison its neighbors.
      image.at(0, 0, 0, 0) = std::numeric_limits<float>::quiet_NaN();
    }
    try {
      futures.push_back(server.submit(std::move(image)));
      ids.push_back(i);
    } catch (const serve::ServeError& e) {
      std::printf("request %d shed at admission: %s\n", i, e.what());
    }
  }

  for (size_t i = 0; i < futures.size(); ++i) {
    try {
      const core::SegmentationResult result = futures[i].get();
      std::printf("request %d ok: %lld tumor voxels\n", ids[i],
                  static_cast<long long>(result.tumor_voxels));
    } catch (const serve::ServeError& e) {
      std::printf("request %d failed (%s): %s\n", ids[i],
                  serve::serve_error_kind_name(e.kind()), e.what());
    }
  }

  server.drain();
  const serve::ServerStats stats = server.stats();
  std::printf(
      "drained: accepted=%lld completed=%lld errors=%lld timeouts=%lld "
      "shed=%lld health=%s\n",
      static_cast<long long>(stats.accepted),
      static_cast<long long>(stats.completed),
      static_cast<long long>(stats.errors),
      static_cast<long long>(stats.timeouts),
      static_cast<long long>(stats.shed),
      serve::health_state_name(stats.health));
  return 0;
}
