#include "train/pipeline_parallel.hpp"

namespace dmis::train {

PipelineParallelStrategy::PipelineParallelStrategy(
    const nn::UNet3dOptions& model_options,
    const PipelineParallelOptions& options)
    : options_(options),
      model_(model_options, options.num_microbatches),
      step_(model_, options.train) {}

TrainReport PipelineParallelStrategy::fit(data::BatchStream& train,
                                          data::BatchStream* val,
                                          const EpochCallback& callback) {
  return run_epochs(options_.train, step_, train, val, callback);
}

double PipelineParallelStrategy::evaluate(data::BatchStream& val) {
  return evaluate_dice(model_, val);
}

}  // namespace dmis::train
