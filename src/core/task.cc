#include "src/core/task.h"

#include <algorithm>

#include "src/data/dataloader.h"
#include "src/models/chain_model.h"
#include "src/util/logging.h"

namespace egeria {

LossResult TaskLoss(const TaskSpec& spec, const Tensor& logits, const Batch& batch) {
  switch (spec.kind) {
    case TaskKind::kClassification:
      return SoftmaxCrossEntropy(logits, batch.labels, spec.label_smoothing);
    case TaskKind::kSegmentation:
      return PixelwiseCrossEntropy(logits, batch.labels);
    case TaskKind::kTranslation:
      return SequenceCrossEntropy(logits, batch.labels, spec.label_smoothing);
    case TaskKind::kQa:
      return SpanLoss(logits, batch.spans);
  }
  EGERIA_CHECK_MSG(false, "unknown task");
  return {};
}

TaskMetric EvaluateTask(const TaskSpec& spec, const Tensor& logits, const Batch& batch) {
  TaskMetric m;
  switch (spec.kind) {
    case TaskKind::kClassification:
      m.display = TopOneAccuracy(logits, batch.labels);
      m.score = m.display;
      m.unit = "acc";
      return m;
    case TaskKind::kSegmentation:
      m.display = MeanIoU(logits, batch.labels, spec.num_classes);
      m.score = m.display;
      m.unit = "mIoU";
      return m;
    case TaskKind::kTranslation:
      m.display = Perplexity(logits, batch.labels);
      m.score = -m.display;
      m.unit = "ppl";
      return m;
    case TaskKind::kQa:
      m.display = SpanF1(logits, batch.spans);
      m.score = m.display;
      m.unit = "F1";
      return m;
  }
  EGERIA_CHECK_MSG(false, "unknown task");
  return m;
}

TaskMetric AggregateMetric(const TaskSpec& spec, const std::vector<TaskMetric>& parts) {
  TaskMetric out;
  EGERIA_CHECK(!parts.empty());
  double sum = 0.0;
  for (const auto& p : parts) {
    sum += p.display;
  }
  out.display = sum / static_cast<double>(parts.size());
  out.unit = parts.front().unit;
  out.score = (spec.kind == TaskKind::kTranslation) ? -out.display : out.display;
  return out;
}

TaskMetric ValidateModel(ChainModel& model, const DataLoader& loader,
                         const TaskSpec& spec, int64_t val_batches) {
  model.SetTraining(false);
  std::vector<TaskMetric> parts;
  const int64_t n = std::min<int64_t>(val_batches, loader.NumBatches());
  for (int64_t b = 0; b < n; ++b) {
    Batch batch = loader.GetBatch(b);
    model.SetBatch(batch);
    Tensor logits = model.ForwardFrom(0, batch.input);
    parts.push_back(EvaluateTask(spec, logits, batch));
  }
  return AggregateMetric(spec, parts);
}

}  // namespace egeria
