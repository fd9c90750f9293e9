// Task plumbing: maps (logits, batch) to loss/gradient and validation metrics for
// the four evaluation task families (Table 1): image classification, semantic
// segmentation, machine translation, question answering.
#ifndef EGERIA_SRC_CORE_TASK_H_
#define EGERIA_SRC_CORE_TASK_H_

#include <string>

#include "src/data/batch.h"
#include "src/nn/loss.h"

namespace egeria {

class ChainModel;
class DataLoader;

enum class TaskKind { kClassification, kSegmentation, kTranslation, kQa };

struct TaskSpec {
  TaskKind kind = TaskKind::kClassification;
  float label_smoothing = 0.0F;
  int num_classes = 10;  // segmentation mIoU
};

LossResult TaskLoss(const TaskSpec& spec, const Tensor& logits, const Batch& batch);

// Validation metric in two forms: `score` is higher-better (perplexity is negated)
// so target-accuracy comparisons are uniform; `display` is the paper-facing value
// (accuracy fraction, mIoU, perplexity, span F1).
struct TaskMetric {
  double score = 0.0;
  double display = 0.0;
  std::string unit;
};

TaskMetric EvaluateTask(const TaskSpec& spec, const Tensor& logits, const Batch& batch);

// Aggregates display metrics across batches and rebuilds the score.
TaskMetric AggregateMetric(const TaskSpec& spec, const std::vector<TaskMetric>& parts);

// The validation pass: switches `model` to eval mode (and leaves it there),
// runs a full forward over the first min(val_batches, NumBatches()) batches
// of `loader` and aggregates their metrics.
TaskMetric ValidateModel(ChainModel& model, const DataLoader& loader,
                         const TaskSpec& spec, int64_t val_batches);

}  // namespace egeria

#endif  // EGERIA_SRC_CORE_TASK_H_
