//===- target/MachineOverlay.h - Measured machine-model refit --------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loads a *machine overlay*: a JSON file that replaces selected
/// machine-model constants of already-registered TargetSpecs with values
/// refit from measurements (docs/TUNING.md "Cost-model refit"). The
/// overlay rides the existing spec-revision mechanism — each refit target
/// is re-registered through TargetRegistry::registerSpec, so its spec
/// hash changes, every cache key moves, and the persisted-cache
/// fingerprint rejects kernels tuned under the factory constants. Nothing
/// downstream needs to know a refit happened.
///
/// Overlay schema (written by tools/unit_refit, hand-editable):
///
///   { "version": 1,
///     "refit": [
///       { "target": "x86",
///         "cpu": { "fork_join_cycles": 1400, "dram_bytes_per_cycle": 42 } },
///       { "target": "nvgpu",
///         "gpu": { "dram_bytes_per_cycle": 580 } } ] }
///
/// Field names are the keys of the machine's params() table
/// (perf/MachineModel.h) — the same keys a spec file's machine block
/// uses; absent fields keep their registered values and "name" is not
/// refittable. Each block is laid over the target's current spec-file
/// block and validated by the spec parser (parseMachineBlock), so a
/// refit value obeys exactly the rules a spec file's does. The block
/// ("cpu" / "gpu") must match the target's engine. Application is
/// all-or-nothing: every entry is validated against the registry before
/// any spec is replaced.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_TARGET_MACHINEOVERLAY_H
#define UNIT_TARGET_MACHINEOVERLAY_H

#include <string>

namespace unit {

/// Parses \p Text as an overlay document and re-registers every listed
/// target with its refit machine model. Returns false (registry
/// untouched) with \p Err filled on malformed JSON, an unknown version,
/// an unregistered or non-spec-registered target, an engine/block
/// mismatch, a "name" member, or a refit value the spec parser rejects
/// (unknown key, non-number, non-finite / non-positive, fractional
/// count). On success sets the process-wide machineOverlayActive() flag.
bool applyMachineOverlayText(const std::string &Text, std::string *Err);

/// Reads \p Path and applies it via applyMachineOverlayText.
bool applyMachineOverlayFile(const std::string &Path, std::string *Err);

/// True once any overlay has been applied in this process. Surfaced as
/// "refit_active" in the compile server's stats reply so operators can
/// tell refit daemons from factory-constant ones.
bool machineOverlayActive();

} // namespace unit

#endif // UNIT_TARGET_MACHINEOVERLAY_H
