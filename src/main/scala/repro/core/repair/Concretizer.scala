package repro.core.repair

import repro.core.{Distinct, Table}
import repro.core.pattern.{Masks, Pattern}
import repro.core.repair.Predicates.Feature
import repro.semantics.SemanticKB
import scala.collection.mutable

/** The repair side of one significant pattern: it turns a flagged row into
  * candidate strings (§3.3–3.4), and is the only module that does.
  *
  * For every abstract slot (character class, disjunction occurrence, or
  * semantic mask) we collect training examples from the rows whose value
  * matches the pattern — the label is the character / alternative / entity
  * suggestion that allowed the transition — in one table keyed by slot, and
  * learn a small decision tree per slot over the table's predicate
  * features. Prediction falls back to the majority label at the slot, then
  * at the token, when no tree reaches the accuracy threshold α. A flagged
  * row's minimal edit programs come from the edit DP over the pattern's DAG
  * for the value's length, and their abstract units are resolved here.
  *
  * Training state is built on demand (§3.4 learns a constraint only for a
  * slot an edit program emits): the aligned paths, `matchingRows` and the slot
  * examples at the first label a unit asks for, and the predicate features
  * (`features`, by name) only when a slot's tree searches a split. A repair
  * that only copies literals, deletes, folds the input character or carries
  * a mask over aligns no value and reads no feature.
  */
final class Concretizer(
    table: Table,
    features: => Vector[Feature],
    pattern: Pattern,
    maskedValues: Vector[String],
    maskSuggestions: Vector[Vector[String]],
    alpha: Double,
) {

  private val dags = mutable.LongMap.empty[Dag]

  /** The pattern's DAG for values of length `len`, built once per length. */
  private def dag(len: Int): Dag = dags.getOrElseUpdate(len, Dag.build(pattern, len))

  private lazy val feats: Vector[Feature] = features

  private lazy val dict = Distinct(maskedValues)

  /** Each distinct masked value's aligned path over its length's DAG, if
    * it is in the pattern's language: the alignment is the membership test.
    */
  private lazy val paths: Vector[Option[Array[Int]]] = dict.values.map(v => EditDp.align(dag(v.length), v))

  /** Rows whose (masked) value is in the pattern's language. */
  lazy val matchingRows: Vector[Int] =
    maskedValues.indices.filter(r => paths(dict.ids(r)).nonEmpty).toVector

  /** The entity suggestion of the mask at position `pos` of `row`'s masked
    * value, by the mask's occurrence index.
    */
  private def suggestionAt(row: Int, pos: Int): Option[String] =
    maskSuggestions(row).lift(maskedValues(row).take(pos).count(Masks.isMask))

  // ---- training examples -------------------------------------------------

  /** Examples (row, label) per abstract slot, in row order, from the
    * captured transitions of every matching row's path (§3.4): each edge
    * that [[Edge.captures]] adds one example to its slot. A class slot is
    * labelled with the consumed character, a disjunction occurrence
    * `SlotKey(disjId, occ, 0)` with the chosen alternative, and a mask slot
    * with the row's entity suggestion. Paths are found once per distinct
    * matching value, and each DAG's edges are mapped to their slots' example
    * lists once; every value in the pattern's language aligns on its DAG,
    * the empty pattern's "" included.
    */
  private lazy val bySlot: Map[SlotKey, Vector[(Int, String)]] = {
    val examples = mutable.HashMap.empty[SlotKey, mutable.Builder[(Int, String), Vector[(Int, String)]]]
    // per DAG (by value length), each edge's slot's examples; null if it captures nothing
    val sinks = mutable.LongMap.empty[Array[mutable.Builder[(Int, String), Vector[(Int, String)]]]]
    for (r <- maskedValues.indices; path <- paths(dict.ids(r))) {
      val v = maskedValues(r)
      val d = dag(v.length)
      val sink = sinks.getOrElseUpdate(v.length, d.edges.iterator.map { e =>
        if (e.captures) examples.getOrElseUpdate(e.slot, Vector.newBuilder) else null
      }.toArray)
      var i = 0
      while (i < path.length) {
        val b = sink(path(i))
        if (b != null) {
          val e = d.edges(path(i))
          e.label match {
            case ClsLabel(_)  => b += r -> v.charAt(i).toString
            case MaskLabel(_) => suggestionAt(r, i).foreach(sug => b += r -> sug)
            case LitLabel(_)  => b += r -> d.disjAlts(e.disjId)(e.disjAlt)
          }
        }
        i += 1
      }
    }
    examples.iterator.map { case (slot, b) => slot -> b.result() }.filter(_._2.nonEmpty).toMap
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

  // ---- repair ------------------------------------------------------------

  /** Candidate repairs of `row` into the pattern's language: for each minimal
    * abstract edit program of its masked value (§3.3), the concretized
    * strings, each with the program's alphanumeric edit count and cost. The
    * strings are the cross-product of every emitted unit's [[options]],
    * capped at `cap`; with `learned` each unit has one option, so each
    * program yields one string.
    */
  def candidates(row: Int, learned: Boolean, cap: Int): Vector[(String, Int, Int)] = {
    val v = maskedValues(row)
    val d = dag(v.length)
    EditDp.minimalRepairs(d, v).flatMap { rep =>
      val edits = EditDp.alnumEdits(d, rep, v)
      rep.emitted.foldLeft(Vector("")) { (acc, unit) =>
        val opts = options(unit, row, learned)
        acc.flatMap(p => opts.map(p + _)).take(cap)
      }.distinct.map(s => (s, edits, rep.cost))
    }
  }

  /** The concrete strings an emitted unit may become at `row`. A mask carried
    * over from the input keeps the row's own entity suggestion (§3.2).
    *
    * With `learned`, one string: a class substitution first tries to
    * *transfer the consumed input character* into the class — case fold and
    * visual-typo inverse (`0↔o`, `1↔l`, …) — which is what recovers
    * capitalization flips and look-alike typos exactly. Otherwise the learned
    * constraint or majority label applies, and without examples the class's
    * first character, the first alternative, or the mask symbol.
    *
    * Without (the "no learned concretization" ablation), every candidate:
    * for a class, the input-derived fold, then the observed characters, most
    * frequent first, then the class's others (at most 8); every alternative
    * of a disjunction; the observed entity suggestions of a mask (at most 6).
    */
  private def options(unit: EmitUnit, row: Int, learned: Boolean): Vector[String] = unit match {
    case EChar(c) => Vector(c.toString)
    case EMask(_, _, Some(pos)) =>
      Vector(suggestionAt(row, pos).orElse(maskSuggestions(row).headOption).getOrElse(""))
    case u: ECls =>
      val fold = u.from.flatMap(Concretizer.foldInto(_, u.cc))
      if (learned) Vector(fold.orElse(predict(u.slot, row).flatMap(_.headOption)).getOrElse(u.cc.sample.head).toString)
      else {
        val seen = observed(u.slot)
        (fold.map(_.toString).toVector ++ seen ++ u.cc.sample.map(_.toString).filterNot(seen.contains)).distinct.take(8)
      }
    case u: EDisj =>
      if (learned) Vector(predict(SlotKey(u.disjId, u.occ, 0), row).getOrElse(u.alts.head)) else u.alts
    case u: EMask =>
      if (learned) Vector(predict(u.slot, row).getOrElse(Masks.charFor(u.semType).toString))
      else {
        val seen = observed(u.slot)
        if (seen.isEmpty) Vector(Masks.charFor(u.semType).toString) else seen.take(6)
      }
  }
}

object Concretizer {
  /** Letter → look-alike digit: the inverse of the knowledge base's table. */
  private val visual = SemanticKB.visualInv.map(_.swap)

  /** Map an input character into a class via case fold or the visual-typo
    * table (both directions); `None` if no mapping lands in the class.
    */
  def foldInto(c: Char, cc: repro.core.pattern.CharClassT): Option[Char] =
    Vector(c.toUpper, c.toLower) .find(x => x != c && cc.contains(x))
      .orElse(visual.get(c.toLower).filter(cc.contains))
      .orElse(SemanticKB.visualInv.get(c).filter(cc.contains))
      .orElse(SemanticKB.visualInv.get(c).map(_.toUpper).filter(cc.contains))
}
