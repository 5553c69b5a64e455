//===- tir/Lower.cpp -------------------------------------------------------===//

#include "tir/Lower.h"

#include "ir/ExprVisitor.h"
#include "support/ErrorHandling.h"

#include <cassert>

using namespace unit;

ExprRef unit::flattenIndex(const TensorRef &Buf,
                           const std::vector<ExprRef> &Indices) {
  assert(Indices.size() == Buf->rank() && "rank mismatch in flatten");
  std::vector<int64_t> Strides = Buf->strides();
  ExprRef Flat = makeIntImm(0);
  for (size_t I = 0; I < Indices.size(); ++I)
    Flat = Flat + Indices[I] * makeIntImm(Strides[I]);
  return Flat;
}

ExprRef unit::flattenLoad(const LoadNode *Load) {
  if (Load->Indices.size() == 1)
    return makeVectorLoad(Load->Buf, Load->Indices.front());
  return makeVectorLoad(Load->Buf, flattenIndex(Load->Buf, Load->Indices));
}

namespace {

/// Rewrites every multi-index Load into a flat single-index Load.
class FlattenMutator : public ExprMutator {
public:
  ExprRef mutateLoad(const ExprRef &, const LoadNode *N) override {
    std::vector<ExprRef> Indices;
    Indices.reserve(N->Indices.size());
    for (const ExprRef &I : N->Indices)
      Indices.push_back(mutate(I));
    if (Indices.size() == 1)
      return makeVectorLoad(N->Buf, Indices.front());
    return makeVectorLoad(N->Buf, flattenIndex(N->Buf, Indices));
  }
};

ExprNode::Kind combinerOpcode(ReduceKind K) {
  switch (K) {
  case ReduceKind::Sum:
    return ExprNode::Kind::Add;
  case ReduceKind::Max:
    return ExprNode::Kind::Max;
  case ReduceKind::Min:
    return ExprNode::Kind::Min;
  }
  unit_unreachable("unknown reduce kind");
}

/// Combiner identity element for initialization.
ExprRef combinerIdentity(ReduceKind K, DataType DType) {
  switch (K) {
  case ReduceKind::Sum:
    return DType.isFloat() ? makeFloatImm(0.0, DType) : makeIntImm(0, DType);
  case ReduceKind::Max:
    // A sufficiently small value; exact min-of-type for the integral types
    // we use. Floats use -inf-ish large negative.
    if (DType.isFloat())
      return makeFloatImm(-1e300, DType);
    return makeIntImm(DType.isUInt() ? 0
                                     : -(int64_t(1) << (DType.bits() - 1)),
                      DType);
  case ReduceKind::Min:
    if (DType.isFloat())
      return makeFloatImm(1e300, DType);
    if (DType.isUInt())
      return makeIntImm((int64_t(1) << DType.bits()) - 1, DType);
    return makeIntImm((int64_t(1) << (DType.bits() - 1)) - 1, DType);
  }
  unit_unreachable("unknown reduce kind");
}

} // namespace

StmtRef unit::lower(const Schedule &S) {
  const ComputeOp &Op = *S.op();
  const TensorRef &Out = Op.output();

  VarSubst Roots = S.rootBindings();
  FlattenMutator Flatten;

  // Output flat index in terms of leaf variables.
  std::vector<ExprRef> OutIdx;
  for (const IterVar &Axis : Op.axes())
    OutIdx.push_back(Roots.at(Axis.get()));
  ExprRef OutFlat = flattenIndex(Out, OutIdx);

  const ReduceNode *Reduce = Op.reduceRoot();

  // --- Main nest body ---
  ExprRef StoreValue;
  if (Reduce) {
    ExprRef Source = Flatten.mutate(substitute(Reduce->Source, Roots));
    ExprRef Current = makeVectorLoad(Out, OutFlat);
    StoreValue =
        makeBinary(combinerOpcode(Reduce->RKind), Current, std::move(Source));
  } else {
    StoreValue = Flatten.mutate(substitute(Op.body(), Roots));
  }
  StmtRef Body = makeStore(Out, OutFlat, std::move(StoreValue));

  // Residue guards around the store, wrapped in `likely`.
  for (const ExprRef &Pred : S.residuePredicates()) {
    ExprRef Guard = makeCall("likely", CallKind::Pure,
                             {Flatten.mutate(substitute(Pred, Roots))},
                             DataType::i32());
    // Predicates are already in leaf terms; substitution is a no-op but
    // keeps the invariant obvious.
    Body = makeIfThenElse(std::move(Guard), std::move(Body));
  }

  // Wrap the leaf loops inside-out.
  for (auto It = S.leaves().rbegin(), E = S.leaves().rend(); It != E; ++It) {
    const IterVar &Leaf = *It;
    Body = makeFor(Leaf, S.annotation(Leaf), std::move(Body));
    for (const auto &[Key, Value] : S.pragmas(Leaf))
      Body = makePragma(Key, Value, std::move(Body));
  }

  if (!Reduce || Op.isInPlaceUpdate())
    return Body;

  // --- Initialization nest (reduction ops only) ---
  // Loops directly over the root data-parallel axes; the init value is the
  // reduce's Init expression or the combiner identity.
  ExprRef InitValue = Reduce->Init
                          ? Flatten.mutate(Reduce->Init)
                          : combinerIdentity(Reduce->RKind,
                                             Out->dtype());
  std::vector<ExprRef> InitIdx;
  for (const IterVar &Axis : Op.axes())
    InitIdx.push_back(makeVar(Axis));
  StmtRef Init = makeStore(Out, flattenIndex(Out, InitIdx),
                           std::move(InitValue));
  for (auto It = Op.axes().rbegin(), E = Op.axes().rend(); It != E; ++It)
    Init = makeFor(*It, ForKind::Serial, std::move(Init));

  return makeSeq({std::move(Init), std::move(Body)});
}
