// The benchmark's workloads. Each builds its inputs from the run's seed,
// sets the engine up, measures for the run's seconds, checks its answers,
// and (in the traced run) replays its queries layer by layer.

#pragma once

#include "engine.h"

namespace perfbench {

/// PPI-shaped data, 6-edge queries with a skewed share of repeated and
/// isomorphic queries, run closed-loop through QueryBatch at width 4.
Outcome RunPaperBatch(const RunConfig& config);

/// Label-diverse data, 12-edge distinct queries at delta 3, one client
/// calling Query() in a closed loop.
Outcome RunLabelRich(const RunConfig& config);

/// ServingCore at width 4 over a DurableDatabase: open-loop Poisson reads
/// with durable add/remove churn, a rate ladder, and a reopen check.
Outcome RunServeChurn(const RunConfig& config);

}  // namespace perfbench
