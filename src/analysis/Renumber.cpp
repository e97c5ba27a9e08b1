//===- analysis/Renumber.cpp - Live-range renumbering ---------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analysis/Renumber.h"

#include "analysis/Liveness.h"
#include "support/UnionFind.h"

#include <algorithm>

using namespace ra;

namespace {

/// Web construction for one function. The union-find nodes are the
/// definitions, numbered in layout order, followed by one entry node per
/// (block, live-in vreg). An entry node stands for the definitions that
/// reach its block's entry, like a pruned-SSA phi: it is united with what
/// each reachable predecessor passes in — that block's last local def of
/// the vreg, or its own entry node when some def reaches that.
class Renumberer {
public:
  Renumberer(Function &F, const CFG &G)
      : F(F), G(G), LV(Liveness::compute(F, G)), Node(F.numVRegs()) {}

  RenumberStats run() {
    RenumberStats Stats;
    Stats.VRegsBefore = F.numVRegs();
    numberNodes();
    buildWebs();
    rewrite();
    Stats.VRegsAfter = F.numVRegs();
    Stats.EntryNodes = Webs.size() - NumDefs;
    return Stats;
  }

private:
  void numberNodes() {
    unsigned NB = F.numBlocks();
    uint32_t N = 0;
    DefBase.resize(NB);
    for (const BasicBlock &B : F.blocks()) {
      DefBase[B.Id] = N;
      for (const Instruction &I : B.Insts)
        N += I.hasDef();
    }
    NumDefs = N;
    EntryBase.resize(NB);
    for (uint32_t B = 0; B < NB; ++B) {
      EntryBase[B] = N;
      N += LV.liveIn(B).count();
    }
    Webs.reset(N);
    Reached.assign(N, 0);
    std::fill_n(Reached.begin(), NumDefs, 1);
  }

  /// Points Node[V] at block \p B's entry node for every V live into B.
  void enterBlock(uint32_t B) {
    uint32_t E = EntryBase[B];
    LV.liveIn(B).forEachSetBit([&](unsigned V) { Node[V] = E++; });
  }

  /// Leaves Node[V] at what block \p B passes to its successors for every
  /// V live out of it: the last local def, else B's entry node.
  void exitBlock(uint32_t B) {
    enterBlock(B);
    uint32_t D = DefBase[B];
    for (const Instruction &I : F.block(B).Insts)
      if (I.hasDef())
        Node[I.defReg()] = D++;
  }

  /// Unites every entry node of a reachable block with what each
  /// predecessor passes in, once some def is known to reach that. An
  /// entry no def reaches stays apart: it joins nothing, so it cannot
  /// link the webs of two successors. "Reached" only grows, so repeating
  /// the RPO sweep until it settles leaves exactly the reaching-
  /// definitions webs.
  void buildWebs() {
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (uint32_t P : G.rpo()) {
        exitBlock(P);
        for (uint32_t S : G.succs(P)) {
          uint32_t E = EntryBase[S];
          LV.liveIn(S).forEachSetBit([&](unsigned V) {
            uint32_t In = Node[V], Entry = E++;
            if (!Reached[In])
              return;
            Webs.unite(Entry, In);
            if (!Reached[Entry])
              Reached[Entry] = Changed = true;
          });
        }
      }
    }
  }

  /// Second walk: assign dense new register ids per web and rewrite all
  /// operands.
  void rewrite() {
    unsigned NR = F.numVRegs();
    std::vector<VRegInfo> NewTable;
    std::vector<VRegId> WebToNew(Webs.size(), InvalidVReg); // UF root -> id
    std::vector<unsigned> SplitCount(NR, 0);
    // Lazily created webs for uses no def reaches (kept so that a
    // malformed function stays structurally intact).
    std::vector<VRegId> UndefWeb(NR, InvalidVReg);

    auto NewRegForWeb = [&](uint32_t N, VRegId OldV) -> VRegId {
      VRegId &Id = WebToNew[Webs.find(N)];
      if (Id != InvalidVReg)
        return Id;
      const VRegInfo &Old = F.vreg(OldV);
      VRegInfo Info = Old;
      unsigned Seq = SplitCount[OldV]++;
      if (Seq > 0)
        Info.Name = Old.Name + "." + std::to_string(Seq);
      Id = NewTable.size();
      NewTable.push_back(std::move(Info));
      return Id;
    };

    auto UndefRegFor = [&](VRegId OldV) -> VRegId {
      if (UndefWeb[OldV] != InvalidVReg)
        return UndefWeb[OldV];
      VRegId Id = NewTable.size();
      NewTable.push_back(F.vreg(OldV));
      UndefWeb[OldV] = Id;
      return Id;
    };

    // A use is either upward-exposed (so live-in, with Node[V] at the
    // block's entry node) or follows a local def that set Node[V].
    uint32_t NextDef = 0;
    for (BasicBlock &B : F.blocks()) {
      enterBlock(B.Id);
      for (Instruction &I : B.Insts) {
        I.forEachUseOperand([&](Operand &O) {
          uint32_t N = Node[O.Reg];
          O = Operand::reg(Reached[N] ? NewRegForWeb(N, O.Reg)
                                      : UndefRegFor(O.Reg));
        });
        if (I.hasDef()) {
          VRegId V = I.defReg();
          Node[V] = NextDef++;
          I.setDefReg(NewRegForWeb(Node[V], V));
        }
      }
    }

    F.setVRegTable(std::move(NewTable));
  }

  Function &F;
  const CFG &G;
  Liveness LV; ///< of the input function, over its old vreg ids

  uint32_t NumDefs = 0;
  std::vector<uint32_t> DefBase;   ///< block -> its first def node
  std::vector<uint32_t> EntryBase; ///< block -> its first entry node
  std::vector<uint8_t> Reached;    ///< node -> some def reaches it
  std::vector<uint32_t> Node;      ///< vreg -> current node (walk state)
  UnionFind Webs;
};

} // namespace

RenumberStats ra::renumberLiveRanges(Function &F, const CFG &G) {
  return Renumberer(F, G).run();
}
