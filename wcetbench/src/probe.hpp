// Structure probe: the figures behind the README's SESE and
// mode-switch findings, outside the benchmark's workloads.
#pragma once

namespace wcetbench {

// Prints, per program shape and size, the supergraph size, the SESE
// region count and the cache and ILP times (raw and host-normalised)
// of a recursive and a monolithic cold analysis. Returns 0.
int run_probe();

} // namespace wcetbench
