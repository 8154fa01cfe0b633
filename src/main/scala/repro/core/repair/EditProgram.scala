package repro.core.repair

import repro.core.pattern._

/** Identifies a pattern slot — the unit concretization constraints are keyed
  * by (§3.4).
  *
  * @param tokId   pre-order index of the syntactic token in the pattern AST
  * @param occ     repetition occurrence path from loop unrolling (outermost
  *                group first); empty outside groups
  * @param charIdx character position within the token (index in a literal,
  *                position within a fixed-length class run, unroll index of a
  *                one-or-more class, char index within a disjunction
  *                alternative)
  */
final case class SlotKey(tokId: Int, occ: Vector[Int], charIdx: Int)

/** Edge labels of the pattern NFA/DAG — each edge consumes one character. */
sealed trait EdgeLabel {
  def matches(c: Char): Boolean
}

/** A single literal character. */
final case class LitLabel(c: Char) extends EdgeLabel {
  def matches(x: Char): Boolean = x == c
}

/** A character class (abstract on emission). */
final case class ClsLabel(cc: CharClassT) extends EdgeLabel {
  def matches(x: Char): Boolean = cc.contains(x)
}

/** A semantic-mask symbol. */
final case class MaskLabel(semType: String) extends EdgeLabel {
  def matches(x: Char): Boolean = x == Masks.charFor(semType)
}

/** One DAG edge. `disjId` / `disjAlt` are set (≥ 0) on edges that belong to a
  * disjunction alternative so repairs can be abstracted to an alternative
  * *choice* when no character of the alternative was anchored by a match.
  */
final case class Edge(id: Int, label: EdgeLabel, slot: SlotKey,
                      disjId: Int = -1, disjAlt: Int = -1) {

  /** Whether a match move along this edge is a training example for its
    * slot (§3.4): a class or mask edge, or the first edge of a disjunction
    * alternative, whose slot `SlotKey(disjId, occ, 0)` keys the occurrence's
    * choice.
    */
  def captures: Boolean = label match {
    case LitLabel(_) => disjId >= 0 && slot.charIdx == 0
    case _           => true
  }
}

/** The moves of Table 1. */
object Move extends Enumeration {
  val MatchM, Sub, Ins, Del = Value
}

/** One step of a (concrete or abstract) edit program.
  *
  * @param move  Table-1 action
  * @param edge  traversed edge id (-1 for leading deletions)
  * @param inIdx index of the consumed input character (-1 for insertions)
  */
final case class Step(move: Move.Value, edge: Int, inIdx: Int)

/** Units of the repaired string in emission order; abstract units are
  * resolved by the concretizer (§3.4) and the semantic reconcretization
  * (§3.2).
  */
sealed trait EmitUnit
/** A concrete character (match, or an edit on a literal edge). */
final case class EChar(c: Char) extends EmitUnit
/** An abstract character-class emission to concretize. `from` is the input
  * character a substitution consumed (`None` for insertions) — the
  * concretizer first tries to map it into the class (case fold, visual-typo
  * inverse) before falling back to learned constraints.
  */
final case class ECls(cc: CharClassT, slot: SlotKey, from: Option[Char] = None) extends EmitUnit
/** A semantic-mask emission; `fromInput` is the input position whose mask
  * symbol was carried over (its own LLM suggestion applies), `None` when the
  * mask was introduced by the edit program.
  */
final case class EMask(semType: String, slot: SlotKey, fromInput: Option[Int]) extends EmitUnit
/** A whole disjunction occurrence whose alternative is an abstract choice. */
final case class EDisj(disjId: Int, occ: Vector[Int], alts: Vector[String]) extends EmitUnit

/** A minimal abstract edit program for one (pattern, value) pair. */
final case class AbstractRepair(cost: Int, steps: Vector[Step], emitted: Vector[EmitUnit])
