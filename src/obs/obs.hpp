/**
 * @file
 * Umbrella header for the observability layer: the metrics registry
 * (counters / gauges / histograms, aggregated into `obs::Snapshot`)
 * and the scoped-span tracer (Chrome trace_event JSON). See
 * `docs/observability.md` for the metric catalogue and the span
 * hierarchy, and `docs/architecture.md` for where the layer sits.
 *
 * Instrumentation idiom used across the runtime:
 *
 *     static obs::Counter& evals =
 *         obs::Registry::global().counter("sampler.grad_evals");
 *     evals.add(n);                        // one relaxed atomic add
 *
 *     obs::Span span("sampler.round");     // one relaxed load when idle
 *
 * Compile-time kill switch: configure with `-DBAYES_OBS=OFF` and every
 * write path above compiles to an empty inline body.
 */
#pragma once

#include "obs/registry.hpp"
#include "obs/trace.hpp"
