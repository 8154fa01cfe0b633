package repro.core.repair

import repro.core.Table
import repro.core.pattern.{Masks, Pattern}
import repro.core.repair.Predicates.Feature
import scala.collection.mutable

/** Concretization constraints for one significant pattern (§3.4).
  *
  * For every abstract slot (character class, disjunction occurrence, or
  * semantic mask) we collect training examples from the rows whose value
  * matches the pattern — the label is the character / alternative / entity
  * suggestion that allowed the transition — in one table keyed by slot, and
  * learn a small decision tree per slot over the table's predicate
  * features. Prediction falls back to the majority label at the slot, then
  * at the token, when no tree reaches the accuracy threshold α.
  */
final class Concretizer(
    table: Table,
    feats: Vector[Feature],
    pattern: Pattern,
    maskedValues: Vector[String],
    maskSuggestions: Vector[Vector[String]],
    alpha: Double,
) {

  /** Rows whose (masked) value is in the pattern's language. */
  val matchingRows: Vector[Int] =
    maskedValues.indices.toVector.filter(r => pattern.matches(maskedValues(r)))

  private val dags = mutable.Map.empty[Int, Dag]

  /** The pattern's DAG for values of length `len`, built once per length. */
  private[core] def dag(len: Int): Dag = dags.getOrElseUpdate(len, Dag.build(pattern, len))

  // ---- training examples -------------------------------------------------

  /** Examples (row, label) per abstract slot, from the captures of every
    * matching row: a class slot is labelled with the consumed character, a
    * disjunction occurrence `SlotKey(disjId, occ, 0)` with the chosen
    * alternative, and a mask slot with the row's entity suggestion. Captures
    * are computed once per distinct matching value.
    */
  private val bySlot: Map[SlotKey, Vector[(Int, String)]] = {
    val captured = mutable.HashMap.empty[String, Option[EditDp.Captures]]
    matchingRows.flatMap { r =>
      val v = maskedValues(r)
      captured.getOrElseUpdate(v, EditDp.captures(dag(v.length), v)).toVector.flatMap { c =>
        c.clsChars.map { case (slot, ch) => (slot, r, ch.toString) } ++
          c.disjChoice.map { case (slot, alt) => (slot, r, alt) } ++
          c.maskAt.flatMap { case (slot, pos) =>
            maskSuggestions(r).lift(v.take(pos).count(Masks.isMask)).map(sug => (slot, r, sug))
          }
      }
    }.groupBy(_._1).view.mapValues(_.map(t => (t._2, t._3))).toMap
  }

  /** The same examples per token; token ids are unique, so kinds never mix. */
  private lazy val byTok: Map[Int, Vector[(Int, String)]] =
    bySlot.toVector.groupMap(_._1.tokId)(_._2).view.mapValues(_.flatten).toMap

  // ---- prediction --------------------------------------------------------

  private val trees = mutable.Map.empty[SlotKey, Option[DecisionTree.DTree]]

  /** The slot's decision tree at `row`, else the most frequent label
    * observed at the slot, or at its token when the slot has none.
    */
  private def predict(slot: SlotKey, row: Int): Option[String] =
    trees.getOrElseUpdate(slot, DecisionTree.learn(feats, bySlot.getOrElse(slot, Vector.empty), alpha))
      .map(_.predict(row, feats))
      .orElse(observed(slot).headOption)

  /** Labels observed at a slot (at its token when the slot has none), most
    * frequent first.
    */
  private def observed(slot: SlotKey): Vector[String] =
    DecisionTree.byFrequency(bySlot.getOrElse(slot, byTok.getOrElse(slot.tokId, Vector.empty)).map(_._2))

  // ---- public API --------------------------------------------------------

  /** Concretize an abstract unit for an error row. A class substitution
    * first tries to *transfer the consumed input character* into the class
    * — case fold and visual-typo inverse (`0↔o`, `1↔l`, …) — which is what
    * recovers capitalization flips and look-alike typos exactly. Otherwise
    * the learned constraint or majority label applies, and without examples
    * the class's first character, the first alternative, or the mask symbol.
    * Masks reach here only when the edit program introduced them; masks
    * carried over from the input keep their own LLM suggestion.
    */
  def concretize(unit: EmitUnit, row: Int): String = unit match {
    case u: ECls =>
      u.from.flatMap(Concretizer.foldInto(_, u.cc))
        .orElse(predict(u.slot, row).flatMap(_.headOption))
        .getOrElse(u.cc.sample.head).toString
    case u: EDisj => predict(SlotKey(u.disjId, u.occ, 0), row).getOrElse(u.alts.head)
    case u: EMask => predict(u.slot, row).getOrElse(Masks.charFor(u.semType).toString)
    case EChar(c) => c.toString
  }

  /** Enumeration mode (the "no learned concretization" ablation): every
    * candidate for an abstract unit. For a class, the input-derived fold,
    * then the observed characters, most frequent first, then the class's
    * others (at most 8); every alternative of a disjunction; the observed
    * entity suggestions of a mask (at most 6).
    */
  def enumerate(unit: EmitUnit): Vector[String] = unit match {
    case u: ECls =>
      val fold = u.from.flatMap(Concretizer.foldInto(_, u.cc)).map(_.toString).toVector
      val seen = observed(u.slot)
      (fold ++ seen ++ u.cc.sample.map(_.toString).filterNot(seen.contains)).distinct.take(8)
    case u: EDisj => u.alts
    case u: EMask =>
      val seen = observed(u.slot)
      if (seen.isEmpty) Vector(Masks.charFor(u.semType).toString) else seen.take(6)
    case EChar(c) => Vector(c.toString)
  }
}

object Concretizer {
  private val visual = Map('o' -> '0', 'l' -> '1', 'e' -> '3', 'a' -> '4', 't' -> '7', 's' -> '5')
  private val visualInv = visual.map(_.swap)

  /** Map an input character into a class via case fold or the visual-typo
    * table (both directions); `None` if no mapping lands in the class.
    */
  def foldInto(c: Char, cc: repro.core.pattern.CharClassT): Option[Char] =
    Vector(c.toUpper, c.toLower) .find(x => x != c && cc.contains(x))
      .orElse(visual.get(c.toLower).filter(cc.contains))
      .orElse(visualInv.get(c).filter(cc.contains))
      .orElse(visualInv.get(c).map(_.toUpper).filter(cc.contains))
}
