//===- target/MachineOverlay.cpp - Measured machine-model refit ------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//

#include "target/MachineOverlay.h"

#include "target/SpecFile.h"
#include "target/TargetRegistry.h"

#include <atomic>
#include <fstream>
#include <sstream>
#include <vector>

namespace unit {

namespace {

std::atomic<bool> OverlayActive{false};

bool fail(std::string *Err, std::string Msg) {
  if (Err)
    *Err = std::move(Msg);
  return false;
}

/// Lays the members of \p Refit over \p M's spec-file block and
/// re-parses the merged block with the spec codec, so a refit is held to
/// exactly the rules a spec file is (target/SpecFile.h
/// parseMachineBlock); absent fields keep their registered values.
template <typename MachineT>
bool refitMachine(const Json &Refit, const std::string &Target, MachineT &M,
                  std::string *Err) {
  if (!Refit.isObject())
    return fail(Err, "overlay target '" + Target +
                         "': machine block is not an object");
  // The name is identity, not a measurement.
  if (Refit.get("name"))
    return fail(Err, "overlay target '" + Target +
                         "': field 'name' is not refittable");
  Json Merged = machineBlockJson(M);
  for (const auto &Member : Refit.members())
    if (Refit.get(Member.first) == &Member.second) // First duplicate wins.
      Merged.set(Member.first, Member.second);
  return parseMachineBlock(Merged, M, Err) ||
         fail(Err, "overlay target '" + Target + "': " + (Err ? *Err : ""));
}

} // namespace

bool applyMachineOverlayText(const std::string &Text, std::string *Err) {
  std::string ParseErr;
  std::optional<Json> Doc = Json::parse(Text, &ParseErr);
  if (!Doc)
    return fail(Err, "overlay parse error: " + ParseErr);
  if (!Doc->isObject())
    return fail(Err, "overlay document is not an object");
  if (Doc->integer("version", -1) != 1)
    return fail(Err, "overlay 'version' must be 1");
  const Json *Refit = Doc->get("refit");
  if (!Refit || !Refit->isArray() || Refit->items().empty())
    return fail(Err, "overlay 'refit' must be a non-empty array");

  // Validate every entry against the live registry and build the refit
  // specs first; only a fully valid document mutates any registration.
  TargetRegistry &Registry = TargetRegistry::instance();
  std::vector<TargetSpec> Updated;
  std::vector<SpecSource> UpdatedSources;
  for (const Json &Entry : Refit->items()) {
    if (!Entry.isObject())
      return fail(Err, "overlay refit entry is not an object");
    std::string Target = Entry.str("target");
    if (Target.empty())
      return fail(Err, "overlay refit entry is missing 'target'");
    for (const TargetSpec &Prev : Updated)
      if (Prev.Id == Target)
        return fail(Err, "overlay lists target '" + Target + "' twice");
    if (!Registry.lookup(Target))
      return fail(Err, "overlay target '" + Target + "' is not registered");
    if (!Registry.hasSpecFor(Target))
      return fail(Err, "overlay target '" + Target +
                           "' is a hand-written backend (no spec to refit)");
    TargetSpec Spec = Registry.specFor(Target);

    const Json *Cpu = Entry.get("cpu");
    const Json *Gpu = Entry.get("gpu");
    if ((Cpu != nullptr) == (Gpu != nullptr))
      return fail(Err, "overlay target '" + Target +
                           "' needs exactly one of 'cpu' / 'gpu'");
    if (Cpu) {
      if (Spec.Engine != TargetSpec::EngineKind::CpuDot)
        return fail(Err, "overlay target '" + Target +
                             "' is a GPU target but carries a 'cpu' block");
      if (!refitMachine(*Cpu, Target, Spec.Cpu, Err))
        return false;
    } else {
      if (Spec.Engine != TargetSpec::EngineKind::GpuImplicitGemm)
        return fail(Err, "overlay target '" + Target +
                             "' is a CPU target but carries a 'gpu' block");
      if (!refitMachine(*Gpu, Target, Spec.Gpu, Err))
        return false;
    }
    Updated.push_back(std::move(Spec));
    // A refit changes constants, not provenance: a file-loaded spec
    // stays "file" in list_targets after the overlay lands.
    UpdatedSources.push_back(Registry.specSourceFor(Target));
  }

  // registerSpec re-hashes each spec, so cache keys and the persistence
  // fingerprint move with the refit constants automatically.
  for (size_t I = 0; I < Updated.size(); ++I)
    Registry.registerSpec(std::move(Updated[I]), UpdatedSources[I]);
  OverlayActive.store(true, std::memory_order_relaxed);
  return true;
}

bool applyMachineOverlayFile(const std::string &Path, std::string *Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return fail(Err, "cannot read overlay file '" + Path + "'");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return applyMachineOverlayText(Buf.str(), Err);
}

bool machineOverlayActive() {
  return OverlayActive.load(std::memory_order_relaxed);
}

} // namespace unit
