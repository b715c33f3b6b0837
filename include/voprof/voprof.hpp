#pragma once
/// \file voprof.hpp
/// Umbrella header for the *stable* voprof surface — the types a
/// consumer needs to train the ICPP'15 overhead models, predict PM
/// utilization, run declarative scenarios and talk to (or embed) the
/// voprofd serving daemon:
///
///   xensim/spec      — machine/VM/workload specs (the vocabulary)
///   scenario         — declarative INI scenarios + replicated runs
///   core/trainer     — Table II sweep -> Sec. V model fitting
///   core/predictor   — prediction-accuracy evaluation (Sec. VI)
///   core/serialize   — model file load/save (Result)
///   runner           — parallel sweep runner + process-wide ModelCache
///   serve            — voprof-api-1 client/server (voprofd)
///
/// Everything here follows semver-style stability (see docs/API.md):
/// breaking a type or function re-exported by this header requires a
/// major version bump. Deeper headers (voprof/xensim/*.hpp,
/// voprof/monitor/*.hpp, voprof/placement/*.hpp, ...) remain available
/// but are internal: include them directly at your own risk — they may
/// change in any release. The examples/ directory demonstrates both
/// tiers.

#include "voprof/core/predictor.hpp"
#include "voprof/core/serialize.hpp"
#include "voprof/core/trainer.hpp"
#include "voprof/runner/runner.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/serve/api.hpp"
#include "voprof/serve/daemon.hpp"
#include "voprof/serve/service.hpp"
#include "voprof/serve/socket.hpp"
#include "voprof/xensim/spec.hpp"
