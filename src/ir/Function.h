//===- ir/Function.h - Basic blocks, functions, module -----------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Containers of the IR: BasicBlock (owns instructions), Function (owns
/// arguments and blocks), and Module (owns functions and interned
/// constants). Kernels are Functions returning void; every function in this
/// IR is a kernel entry point.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_IR_FUNCTION_H
#define KPERF_IR_FUNCTION_H

#include "ir/Instruction.h"

#include <map>
#include <memory>
#include <vector>

namespace kperf {
namespace ir {

class Function;

/// A straight-line sequence of instructions ending in a terminator.
class BasicBlock {
public:
  BasicBlock(std::string Name, Function *Parent)
      : Name(std::move(Name)), Parent(Parent) {}
  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;

  const std::string &name() const { return Name; }
  Function *parent() const { return Parent; }

  /// Appends \p I to this block and returns it.
  Instruction *append(std::unique_ptr<Instruction> I) {
    I->setParent(this);
    Instructions.push_back(std::move(I));
    return Instructions.back().get();
  }

  /// Inserts \p I at position \p Index.
  Instruction *insert(size_t Index, std::unique_ptr<Instruction> I) {
    assert(Index <= Instructions.size() && "insert position out of range");
    I->setParent(this);
    auto It = Instructions.insert(
        Instructions.begin() + static_cast<ptrdiff_t>(Index), std::move(I));
    return It->get();
  }

  bool empty() const { return Instructions.empty(); }
  size_t size() const { return Instructions.size(); }
  Instruction *at(size_t I) const { return Instructions[I].get(); }

  /// Returns the terminator, or null if the block is not yet terminated.
  Instruction *terminator() const {
    if (Instructions.empty() || !Instructions.back()->isTerminator())
      return nullptr;
    return Instructions.back().get();
  }

  const std::vector<std::unique_ptr<Instruction>> &instructions() const {
    return Instructions;
  }

  /// Mutable access for passes that erase instructions (e.g. DCE).
  std::vector<std::unique_ptr<Instruction>> &mutableInstructions() {
    return Instructions;
  }

  /// Returns the index of the first non-phi instruction (== size() for a
  /// block of only phis). Phis are contiguous at the head of a block.
  size_t firstNonPhiIndex() const {
    size_t Idx = 0;
    while (Idx < Instructions.size() &&
           Instructions[Idx]->opcode() == Opcode::Phi)
      ++Idx;
    return Idx;
  }

  /// Returns the position of \p I in this block; asserts if absent.
  size_t indexOf(const Instruction *I) const {
    for (size_t Idx = 0; Idx < Instructions.size(); ++Idx)
      if (Instructions[Idx].get() == I)
        return Idx;
    assert(false && "instruction not in block");
    return ~size_t(0);
  }

private:
  std::string Name;
  Function *Parent;
  std::vector<std::unique_ptr<Instruction>> Instructions;
};

/// A kernel function: arguments plus a CFG of basic blocks. The first block
/// is the entry block. Local-space allocas must appear in the entry block
/// (they name per-work-group storage and are materialized once per group).
class Function {
public:
  explicit Function(std::string Name) : Name(std::move(Name)) {}
  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  Argument *addArgument(Type Ty, std::string ArgName, bool IsConst) {
    Arguments.push_back(std::make_unique<Argument>(
        Ty, std::move(ArgName), static_cast<unsigned>(Arguments.size()),
        IsConst));
    return Arguments.back().get();
  }

  unsigned numArguments() const {
    return static_cast<unsigned>(Arguments.size());
  }
  Argument *argument(unsigned I) const {
    assert(I < Arguments.size() && "argument index out of range");
    return Arguments[I].get();
  }

  /// Finds an argument by name; returns null if absent.
  Argument *argumentByName(const std::string &ArgName) const {
    for (const auto &A : Arguments)
      if (A->name() == ArgName)
        return A.get();
    return nullptr;
  }

  BasicBlock *createBlock(std::string BlockName) {
    Blocks.push_back(
        std::make_unique<BasicBlock>(std::move(BlockName), this));
    return Blocks.back().get();
  }

  /// Inserts a new block at position \p Index in the block list.
  BasicBlock *createBlockAt(size_t Index, std::string BlockName) {
    assert(Index <= Blocks.size() && "block position out of range");
    auto It = Blocks.insert(
        Blocks.begin() + static_cast<ptrdiff_t>(Index),
        std::make_unique<BasicBlock>(std::move(BlockName), this));
    return It->get();
  }

  BasicBlock *entry() const {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front().get();
  }

  size_t numBlocks() const { return Blocks.size(); }
  BasicBlock *block(size_t I) const { return Blocks[I].get(); }
  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }

  /// Removes \p BB (and every instruction it owns) from the function.
  /// The caller must have rewritten all references into the block first
  /// (branch targets, phi incomings, operand uses); asserts if absent.
  /// Used by loop unrolling, which replaces a loop's blocks wholesale.
  void removeBlock(const BasicBlock *BB) {
    for (auto It = Blocks.begin(); It != Blocks.end(); ++It)
      if (It->get() == BB) {
        Blocks.erase(It);
        return;
      }
    assert(false && "block not in function");
  }

  /// Returns the position of \p BB in the block list; asserts if absent.
  size_t blockIndex(const BasicBlock *BB) const {
    for (size_t I = 0; I < Blocks.size(); ++I)
      if (Blocks[I].get() == BB)
        return I;
    assert(false && "block not in function");
    return ~size_t(0);
  }

private:
  std::string Name;
  std::vector<std::unique_ptr<Argument>> Arguments;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
};

/// Owns functions and interned constants.
class Module {
public:
  Module() = default;
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  Function *createFunction(std::string Name) {
    Functions.push_back(std::make_unique<Function>(std::move(Name)));
    return Functions.back().get();
  }

  /// Finds a function by name; returns null if absent.
  Function *function(const std::string &Name) const {
    for (const auto &F : Functions)
      if (F->name() == Name)
        return F.get();
    return nullptr;
  }

  size_t numFunctions() const { return Functions.size(); }
  Function *functionAt(size_t I) const { return Functions[I].get(); }

  /// Removes \p F from the module and hands ownership to the caller
  /// (e.g. a generated kernel the runtime rejects before handing it out).
  /// Returns null if \p F is not in this module.
  std::unique_ptr<Function> takeFunction(const Function *F) {
    for (auto It = Functions.begin(); It != Functions.end(); ++It)
      if (It->get() == F) {
        std::unique_ptr<Function> Owned = std::move(*It);
        Functions.erase(It);
        return Owned;
      }
    return nullptr;
  }

  /// Interned constants; pointer identity implies value identity.
  ConstantInt *getInt(int32_t V);
  ConstantFloat *getFloat(float V);
  ConstantBool *getBool(bool V);

private:
  std::vector<std::unique_ptr<Function>> Functions;
  std::map<int32_t, std::unique_ptr<ConstantInt>> IntConstants;
  std::map<float, std::unique_ptr<ConstantFloat>> FloatConstants;
  std::unique_ptr<ConstantBool> TrueConstant;
  std::unique_ptr<ConstantBool> FalseConstant;
};

} // namespace ir
} // namespace kperf

#endif // KPERF_IR_FUNCTION_H
