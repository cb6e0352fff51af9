//===- ir/IR.cpp - Out-of-line IR methods ---------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/InstructionUtils.h"

using namespace kperf;
using namespace kperf::ir;

Value::~Value() = default;

const char *ir::addressSpaceName(AddressSpace Space) {
  switch (Space) {
  case AddressSpace::Private:
    return "private";
  case AddressSpace::Local:
    return "local";
  case AddressSpace::Global:
    return "global";
  }
  return "?";
}

std::string Type::str() const {
  std::string S;
  if (Pointer) {
    S += addressSpaceName(Space);
    S += ' ';
  }
  switch (Kind) {
  case ScalarKind::Void:
    S += "void";
    break;
  case ScalarKind::Bool:
    S += "bool";
    break;
  case ScalarKind::Int:
    S += "int";
    break;
  case ScalarKind::Float:
    S += "float";
    break;
  }
  if (Pointer)
    S += '*';
  return S;
}

const char *ir::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Alloca:
    return "alloca";
  case Opcode::Load:
    return "load";
  case Opcode::Store:
    return "store";
  case Opcode::Gep:
    return "gep";
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::Div:
    return "div";
  case Opcode::Rem:
    return "rem";
  case Opcode::CmpEq:
    return "cmp.eq";
  case Opcode::CmpNe:
    return "cmp.ne";
  case Opcode::CmpLt:
    return "cmp.lt";
  case Opcode::CmpLe:
    return "cmp.le";
  case Opcode::CmpGt:
    return "cmp.gt";
  case Opcode::CmpGe:
    return "cmp.ge";
  case Opcode::LogicalAnd:
    return "and";
  case Opcode::LogicalOr:
    return "or";
  case Opcode::LogicalNot:
    return "not";
  case Opcode::Neg:
    return "neg";
  case Opcode::IntToFloat:
    return "itof";
  case Opcode::FloatToInt:
    return "ftoi";
  case Opcode::Select:
    return "select";
  case Opcode::Call:
    return "call";
  case Opcode::Phi:
    return "phi";
  case Opcode::Br:
    return "br";
  case Opcode::CondBr:
    return "condbr";
  case Opcode::Ret:
    return "ret";
  }
  return "?";
}

const char *ir::builtinName(Builtin B) {
  switch (B) {
  case Builtin::GetGlobalId:
    return "get_global_id";
  case Builtin::GetLocalId:
    return "get_local_id";
  case Builtin::GetGroupId:
    return "get_group_id";
  case Builtin::GetLocalSize:
    return "get_local_size";
  case Builtin::GetGlobalSize:
    return "get_global_size";
  case Builtin::GetNumGroups:
    return "get_num_groups";
  case Builtin::Barrier:
    return "barrier";
  case Builtin::Min:
    return "min";
  case Builtin::Max:
    return "max";
  case Builtin::Clamp:
    return "clamp";
  case Builtin::Abs:
    return "abs";
  case Builtin::Sqrt:
    return "sqrt";
  case Builtin::Exp:
    return "exp";
  case Builtin::Log:
    return "log";
  case Builtin::Pow:
    return "pow";
  case Builtin::Floor:
    return "floor";
  }
  return "?";
}

bool ir::isConstant(const Value *V) {
  switch (V->kind()) {
  case Value::ValueKind::ConstantInt:
  case Value::ValueKind::ConstantFloat:
  case Value::ValueKind::ConstantBool:
    return true;
  default:
    return false;
  }
}

ConstantInt *Module::getInt(int32_t V) {
  auto &Slot = IntConstants[V];
  if (!Slot)
    Slot = std::make_unique<ConstantInt>(V);
  return Slot.get();
}

ConstantFloat *Module::getFloat(float V) {
  auto &Slot = FloatConstants[V];
  if (!Slot)
    Slot = std::make_unique<ConstantFloat>(V);
  return Slot.get();
}

ConstantBool *Module::getBool(bool V) {
  auto &Slot = V ? TrueConstant : FalseConstant;
  if (!Slot)
    Slot = std::make_unique<ConstantBool>(V);
  return Slot.get();
}

//===----------------------------------------------------------------------===//
// IRBuilder
//===----------------------------------------------------------------------===//

Instruction *IRBuilder::insert(std::unique_ptr<Instruction> I) {
  assert(Block && "no insertion point set");
  if (!InsertAtIndex)
    return Block->append(std::move(I));
  Instruction *Res = Block->insert(Index_, std::move(I));
  ++Index_;
  return Res;
}

Instruction *IRBuilder::createAlloca(ScalarKind Elem, unsigned Count,
                                     AddressSpace Space, std::string Name) {
  assert(Space != AddressSpace::Global && "cannot alloca global memory");
  assert(Count >= 1 && "alloca of zero elements");
  auto I = std::make_unique<Instruction>(
      Opcode::Alloca, Type::pointerTo(Elem, Space), std::vector<Value *>{},
      std::move(Name));
  I->setAllocaCount(Count);
  return insert(std::move(I));
}

Instruction *IRBuilder::createLoad(Value *Ptr, std::string Name) {
  assert(Ptr->type().isPointer() && "load from non-pointer");
  return insert(std::make_unique<Instruction>(
      Opcode::Load, Ptr->type().pointeeType(), std::vector<Value *>{Ptr},
      std::move(Name)));
}

Instruction *IRBuilder::createStore(Value *Val, Value *Ptr) {
  assert(Ptr->type().isPointer() && "store to non-pointer");
  assert(Val->type() == Ptr->type().pointeeType() &&
         "store value/pointee type mismatch");
  return insert(std::make_unique<Instruction>(
      Opcode::Store, Type::voidTy(), std::vector<Value *>{Val, Ptr}, ""));
}

Instruction *IRBuilder::createGep(Value *Ptr, Value *Index,
                                  std::string Name) {
  assert(Ptr->type().isPointer() && "gep base must be a pointer");
  assert(Index->type().isInt() && "gep index must be int");
  return insert(std::make_unique<Instruction>(
      Opcode::Gep, Ptr->type(), std::vector<Value *>{Ptr, Index},
      std::move(Name)));
}

Instruction *IRBuilder::createBinary(Opcode Op, Value *LHS, Value *RHS,
                                     std::string Name) {
  assert(LHS->type() == RHS->type() && "binary operand type mismatch");
  assert(LHS->type().isNumeric() && "binary operands must be numeric");
  return insert(std::make_unique<Instruction>(
      Op, LHS->type(), std::vector<Value *>{LHS, RHS}, std::move(Name)));
}

Instruction *IRBuilder::createCmp(Opcode Op, Value *LHS, Value *RHS,
                                  std::string Name) {
  assert(LHS->type() == RHS->type() && "cmp operand type mismatch");
  assert(LHS->type().isNumeric() && "cmp operands must be numeric");
  return insert(std::make_unique<Instruction>(
      Op, Type::boolTy(), std::vector<Value *>{LHS, RHS}, std::move(Name)));
}

Instruction *IRBuilder::createLogical(Opcode Op, Value *LHS, Value *RHS,
                                      std::string Name) {
  assert(LHS->type().isBool() && RHS->type().isBool() &&
         "logical operands must be bool");
  return insert(std::make_unique<Instruction>(
      Op, Type::boolTy(), std::vector<Value *>{LHS, RHS}, std::move(Name)));
}

Instruction *IRBuilder::createNot(Value *V, std::string Name) {
  assert(V->type().isBool() && "not operand must be bool");
  return insert(std::make_unique<Instruction>(
      Opcode::LogicalNot, Type::boolTy(), std::vector<Value *>{V},
      std::move(Name)));
}

Instruction *IRBuilder::createNeg(Value *V, std::string Name) {
  assert(V->type().isNumeric() && "neg operand must be numeric");
  return insert(std::make_unique<Instruction>(
      Opcode::Neg, V->type(), std::vector<Value *>{V}, std::move(Name)));
}

Instruction *IRBuilder::createIntToFloat(Value *V, std::string Name) {
  assert(V->type().isInt() && "itof operand must be int");
  return insert(std::make_unique<Instruction>(
      Opcode::IntToFloat, Type::floatTy(), std::vector<Value *>{V},
      std::move(Name)));
}

Instruction *IRBuilder::createFloatToInt(Value *V, std::string Name) {
  assert(V->type().isFloat() && "ftoi operand must be float");
  return insert(std::make_unique<Instruction>(
      Opcode::FloatToInt, Type::intTy(), std::vector<Value *>{V},
      std::move(Name)));
}

Instruction *IRBuilder::createSelect(Value *Cond, Value *TrueV, Value *FalseV,
                                     std::string Name) {
  assert(Cond->type().isBool() && "select condition must be bool");
  assert(TrueV->type() == FalseV->type() && "select arm type mismatch");
  return insert(std::make_unique<Instruction>(
      Opcode::Select, TrueV->type(),
      std::vector<Value *>{Cond, TrueV, FalseV}, std::move(Name)));
}

Instruction *IRBuilder::createCall(Builtin B, std::vector<Value *> Args,
                                   std::string Name) {
  Type ResultTy = Type::voidTy();
  switch (B) {
  case Builtin::GetGlobalId:
  case Builtin::GetLocalId:
  case Builtin::GetGroupId:
  case Builtin::GetLocalSize:
  case Builtin::GetGlobalSize:
  case Builtin::GetNumGroups:
    assert(Args.size() == 1 && Args[0]->type().isInt() &&
           "work-item query takes one int dimension");
    ResultTy = Type::intTy();
    break;
  case Builtin::Barrier:
    assert(Args.empty() && "barrier takes no arguments");
    break;
  case Builtin::Min:
  case Builtin::Max:
  case Builtin::Pow:
    assert(Args.size() == 2 && Args[0]->type() == Args[1]->type() &&
           Args[0]->type().isNumeric() && "bad binary math builtin args");
    ResultTy = Args[0]->type();
    break;
  case Builtin::Clamp:
    assert(Args.size() == 3 && Args[0]->type() == Args[1]->type() &&
           Args[0]->type() == Args[2]->type() &&
           Args[0]->type().isNumeric() && "bad clamp args");
    ResultTy = Args[0]->type();
    break;
  case Builtin::Abs:
    assert(Args.size() == 1 && Args[0]->type().isNumeric() &&
           "bad abs args");
    ResultTy = Args[0]->type();
    break;
  case Builtin::Sqrt:
  case Builtin::Exp:
  case Builtin::Log:
  case Builtin::Floor:
    assert(Args.size() == 1 && Args[0]->type().isFloat() &&
           "unary float builtin takes one float");
    ResultTy = Type::floatTy();
    break;
  }
  auto I = std::make_unique<Instruction>(Opcode::Call, ResultTy,
                                         std::move(Args), std::move(Name));
  I->setCallee(B);
  return insert(std::move(I));
}

Instruction *IRBuilder::createPhi(Type Ty, std::string Name) {
  assert(!Ty.isVoid() && "phi must produce a value");
  assert(Block && "no insertion point set");
  auto I = std::make_unique<Instruction>(Opcode::Phi, Ty,
                                         std::vector<Value *>{},
                                         std::move(Name));
  size_t At = Block->firstNonPhiIndex();
  if (InsertAtIndex && At <= Index_)
    ++Index_; // Keep an index-mode insertion point stable.
  return Block->insert(At, std::move(I));
}

Instruction *IRBuilder::createBr(BasicBlock *Target) {
  auto I = std::make_unique<Instruction>(Opcode::Br, Type::voidTy(),
                                         std::vector<Value *>{}, "");
  I->setBranchTarget(0, Target);
  return insert(std::move(I));
}

Instruction *IRBuilder::createCondBr(Value *Cond, BasicBlock *TrueBB,
                                     BasicBlock *FalseBB) {
  assert(Cond->type().isBool() && "condbr condition must be bool");
  auto I = std::make_unique<Instruction>(Opcode::CondBr, Type::voidTy(),
                                         std::vector<Value *>{Cond}, "");
  I->setBranchTarget(0, TrueBB);
  I->setBranchTarget(1, FalseBB);
  return insert(std::move(I));
}

Instruction *IRBuilder::createRet() {
  return insert(std::make_unique<Instruction>(
      Opcode::Ret, Type::voidTy(), std::vector<Value *>{}, ""));
}

Value *IRBuilder::foldAdd(Value *L, Value *R) {
  auto *CL = dyn_cast<ConstantInt>(L);
  auto *CR = dyn_cast<ConstantInt>(R);
  if (CL && CR)
    return getInt(wrapIntAdd(CL->value(), CR->value()));
  if (CL && CL->value() == 0)
    return R;
  if (CR && CR->value() == 0)
    return L;
  return createAdd(L, R);
}

Instruction *IRBuilder::createClampInt(Value *V, Value *Lo, Value *Hi,
                                       std::string Name) {
  return createCall(Builtin::Clamp, {V, Lo, Hi}, std::move(Name));
}
