// PGT-I umbrella header: the public API of the library.
//
// Quickstart:
//
//   #include "core/pgt_i.h"
//   using namespace pgti;
//
//   core::TrainConfig cfg;
//   cfg.spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
//   cfg.mode = core::BatchingMode::kIndex;   // the paper's contribution
//   cfg.epochs = 5;
//   core::TrainResult r = core::Trainer(cfg).run();
//
// See examples/ for runnable programs and DESIGN.md for the module map.
#pragma once

#include "core/config.h"
#include "core/dist_trainer.h"
#include "core/evaluation.h"
#include "core/metrics.h"
#include "core/model_factory.h"
#include "core/trainer.h"
#include "data/dataloader.h"
#include "data/dataset_spec.h"
#include "data/index_dataset.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "dist/cluster_model.h"
#include "dist/comm.h"
#include "dist/ddp.h"
#include "dist/dist_store.h"
#include "dist/fetch_model.h"
