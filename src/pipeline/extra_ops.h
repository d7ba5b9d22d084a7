// Additional preprocessing operators beyond the paper's five.
//
// Real torchvision pipelines mix in more transforms; these give the library
// enough vocabulary to express the common image-classification variants:
//   * Resize(shorter_side)   — deterministic aspect-preserving resize,
//   * CenterCrop(size)       — deterministic central crop,
//   * ColorJitter(b, c)      — random brightness/contrast perturbation.
// Together with the core ops they build the standard *validation* pipeline
// (Resize(256) → CenterCrop(224) → ToTensor → Normalize), which has no
// random stages — the case where preprocess-once reuse is actually safe.
#pragma once

#include <memory>

#include "pipeline/op.h"
#include "pipeline/pipeline.h"

namespace sophon::pipeline {

/// Aspect-preserving resize so the shorter side equals `shorter_side`.
std::unique_ptr<PreprocessOp> make_resize_shorter_op(int shorter_side);

/// Deterministic central crop to size x size (clamped to the image).
std::unique_ptr<PreprocessOp> make_center_crop_op(int size);

/// Random brightness/contrast jitter: brightness factor drawn from
/// [1-b, 1+b], contrast factor from [1-c, 1+c]. Size-neutral.
std::unique_ptr<PreprocessOp> make_color_jitter_op(double brightness = 0.4,
                                                   double contrast = 0.4);

/// The torchvision validation pipeline:
/// Decode → Resize(resize_to) → CenterCrop(crop_to) → ToTensor → Normalize.
/// Fully deterministic (no random ops).
[[nodiscard]] Pipeline validation_pipeline(int resize_to = 256, int crop_to = 224);

/// A heavier augmentation pipeline:
/// Decode → RandomResizedCrop(target) → ColorJitter → RandomHorizontalFlip →
/// ToTensor → Normalize.
[[nodiscard]] Pipeline augmented_pipeline(int target_size = 224);

}  // namespace sophon::pipeline
