// Declarative machine descriptions: MachineSpec and the preset
// registry.
//
// Everything a Machine is built from — the system spec of §II, the
// bandwidth-model constants, the NoC-model constants — packaged as one
// value type that loads and saves as JSON and round-trips byte for
// byte.  The paper's mechanisms (latency plateaus from cache capacity,
// the 2:1 Centaur read:write peak, inter- vs intra-group asymmetry)
// are properties of *any* well-formed POWER8-family configuration, so
// configurations are data, not code: the benches take
// `--machine=<name|path.json>`, the registry ships the calibrated
// `e870` plus scaled and ablated variants, and `bench_scaling_matrix`
// asserts the structural invariants on every preset.
//
// Validation: every spec passes through `sim::ModelAudit` the moment a
// Machine is constructed from it, and the bench gates refuse to
// simulate a spec whose audit carries errors (docs/ANALYSIS.md).  A
// registry preset must be *fully* clean — not even warnings
// (machine_spec_test pins this, mirroring the `model_audit_gate`
// pattern).
#pragma once

#include <string>
#include <vector>

#include "arch/spec.hpp"
#include "sim/audit.hpp"
#include "sim/machine/machine.hpp"
#include "sim/mem/bandwidth.hpp"
#include "sim/noc/noc.hpp"

namespace p8::sim {

struct MachineSpec {
  arch::SystemSpec system;
  MemBandwidthParams mem;
  NocParams noc;

  /// Deterministic JSON rendering: fixed member order, two-space
  /// indent, shortest-round-trip number formatting — equal specs
  /// always serialize to equal bytes, and save -> load -> save is
  /// byte-identical.
  std::string to_json() const;

  /// Parses a spec saved by to_json() (or hand-written to the same
  /// schema, docs/MODEL.md).  Missing members take the schema's
  /// built-in defaults — zero for the machine shape, not the e870, so
  /// a partial file fails its audit; unknown members and type
  /// mismatches throw std::invalid_argument with the offending path — a
  /// typo in a hand-edited file must fail loudly, not silently
  /// simulate the default.
  static MachineSpec from_json(const std::string& text);

  /// The ModelAudit verdict on this configuration (what Machine
  /// construction computes and the bench gates enforce).
  AuditReport audit() const { return ModelAudit::machine(system, mem, noc); }

  /// Builds the machine this spec describes.
  Machine machine() const { return Machine(system, mem, noc); }

  friend bool operator==(const MachineSpec&, const MachineSpec&) = default;
};

/// Names of the shipped presets, in registry order:
///   e870           — the calibrated system under test (Tables I/II)
///   e850c          — a 2-socket, 12-core/chip midrange configuration
///   e880           — a 16-socket, 192-core scale-up (two 8-chip groups)
///   e870-smt4      — e870 with SMT4 cores (thread-count ablation)
///   e870-centaur4  — e870 with half the Centaurs (memory-attach ablation)
std::vector<std::string> machine_names();

bool has_machine_spec(const std::string& name);

/// The named preset; throws std::invalid_argument listing the known
/// names when `name` is not one of them.
MachineSpec machine_spec(const std::string& name);

/// Resolves a bench `--machine` selector: a path ending in ".json"
/// (case-insensitive) is loaded from disk via from_json(), anything
/// else is a registry preset name.  Throws std::invalid_argument on an
/// unknown name, an unreadable file, or malformed JSON.
MachineSpec load_machine_spec(const std::string& name_or_path);

}  // namespace p8::sim
