package repro.core.repair

import repro.core.pattern.{CharClassT, Masks}
import scala.collection.mutable.ArrayBuffer

/** The paper's COST/MOVES dynamic program (§3.3).
  *
  * `cost(i, j)` is the minimum edit cost of having consumed the first `i`
  * input characters and just traversed edge `j` of the unrolled DAG:
  *
  *   cost(i,j) = min( min_{j'∈p(j)} cost(i,   j') + 1,              // I
  *                    min_{j'∈p(j)} cost(i-1, j') + [s(i) ∉ l(j)],  // M or S
  *                    cost(i-1, j) + 1 )                            // D
  *
  * A virtual start edge, id -1 in the DAG's predecessor lists, carries
  * cost(i, -1) = i (leading deletions).
  * The answer is min over accepting edges of cost(n, ·); MOVES backpointers
  * reconstruct the minimal abstract edit program.
  */
object EditDp {

  private val Inf = Int.MaxValue / 4

  // move codes in the backpointer matrix
  private val M = 0: Byte; private val S = 1: Byte
  private val I = 2: Byte; private val D = 3: Byte

  /** Minimal abstract edit programs turning `s` into a member of the DAG's
    * pattern language; empty if the DAG has no edges. Equal-cost programs can
    * differ in whether an offending character is substituted or deleted, so
    * both are returned for the ranker (§3.5), deduplicated: first the one
    * ending on the last accepting edge of minimal cost (the longest
    * traversal, substitution-flavoured), then the one ending on the first
    * (deletion-flavoured). COST/MOVES are filled once for both.
    */
  def minimalRepairs(dag: Dag, s: String): Vector[AbstractRepair] = {
    val m = dag.edges.length
    val n = s.length
    if (m == 0) return Vector.empty

    val cost = Array.ofDim[Int](n + 1, m)
    val move = Array.ofDim[Byte](n + 1, m)
    val prev = Array.ofDim[Int](n + 1, m)

    // cost at layer i of predecessor jp; the virtual start costs i deletions
    def at(i: Int, jp: Int): Int = if (jp < 0) i else cost(i)(jp)

    for (i <- 0 to n; j <- 0 until m) {
      val ps    = dag.preds(j)
      var best  = Inf
      var bMove = M
      var bPrev = -1

      if (i >= 1) {
        // M or S: consume s(i-1) while traversing j
        val mc = if (dag.edges(j).label.matches(s(i - 1))) 0 else 1
        for (jp <- ps) {
          val c = at(i - 1, jp) + mc
          if (c < best) { best = c; bMove = if (mc == 0) M else S; bPrev = jp }
        }
        // D: delete s(i-1) after having traversed j
        if (cost(i - 1)(j) + 1 < best) { best = cost(i - 1)(j) + 1; bMove = D; bPrev = j }
      }

      // I: traverse j by inserting its character, consuming nothing
      for (jp <- ps) {
        val c = at(i, jp) + 1
        if (c < best) { best = c; bMove = I; bPrev = jp }
      }

      cost(i)(j) = best; move(i)(j) = bMove; prev(i)(j) = bPrev
    }

    val candidates = dag.acceptingEdges.toVector.map(j => (cost(n)(j), j))
    if (candidates.isEmpty) return Vector.empty
    val picks = Vector(candidates.minBy { case (c, j) => (c, -j) }, candidates.minBy { case (c, j) => (c, j) })
    picks.distinct.map { case (finalCost, bestJ) =>
      // backtrack
      val steps = ArrayBuffer.empty[Step]
      var i = n
      var j = bestJ
      var done = false
      while (!done) {
        move(i)(j) match {
          case `M` | `S` =>
            steps.prepend(Step(if (move(i)(j) == M) Move.MatchM else Move.Sub, j, i - 1))
            val p = prev(i)(j); i -= 1
            if (p == -1) done = true else j = p
          case `I` =>
            steps.prepend(Step(Move.Ins, j, -1))
            val p = prev(i)(j)
            if (p == -1) done = true else j = p
          case `D` =>
            steps.prepend(Step(Move.Del, j, i - 1))
            i -= 1
        }
      }
      // any remaining prefix was deleted on the virtual start edge
      for (k <- (i - 1) to 0 by -1) steps.prepend(Step(Move.Del, -1, k))

      AbstractRepair(finalCost, steps.toVector, emit(dag, s, steps.toVector))
    }
  }

  /** Zero-cost alignment of a value in the pattern's language: the edge
    * each input character traverses, or `None` when `s` is not in it. This is
    * the path of the repair [[minimalRepairs]] returns first for such a
    * value, all match moves, found without edit costs: it ends on the last
    * accepting edge, and each edge follows its first aligned predecessor. An
    * edgeless DAG (the empty pattern) aligns exactly "", with an empty path.
    * Captures run it on every matching row.
    */
  def align(dag: Dag, s: String): Option[Array[Int]] = {
    val n = s.length
    if (dag.edges.isEmpty) return if (n == 0) Some(Array.emptyIntArray) else None
    // ok(i)(j): match moves consume s.take(i) and end on edge j
    val ok = Array.ofDim[Boolean](n + 1, dag.edges.length)
    def okAt(i: Int, jp: Int): Boolean = if (jp < 0) i == 0 else ok(i)(jp)
    for (i <- 1 to n; j <- dag.edges.indices)
      ok(i)(j) = dag.edges(j).label.matches(s(i - 1)) && dag.preds(j).exists(okAt(i - 1, _))
    dag.acceptingEdges.filter(ok(n)(_)).maxOption.map { last =>
      (n until 1 by -1).scanLeft(last)((j, i) => dag.preds(j).find(okAt(i - 1, _)).get).reverse.toArray
    }
  }

  /** Forward emission: turn the step sequence into emit units, abstracting
    * disjunction occurrences in which no character was anchored by a match.
    */
  private def emit(dag: Dag, s: String, steps: Vector[Step]): Vector[EmitUnit] = {
    // disjunction occurrences anchored by at least one match
    val anchored: Set[(Int, Vector[Int])] = steps.iterator.collect {
      case Step(Move.MatchM, j, _) if j >= 0 && dag.edges(j).disjId >= 0 =>
        (dag.edges(j).disjId, dag.edges(j).slot.occ)
    }.toSet

    val out = Vector.newBuilder[EmitUnit]
    var emittedDisj = Set.empty[(Int, Vector[Int])]
    for (st <- steps; if st.move != Move.Del) {
      val e = dag.edges(st.edge)
      val dKey = (e.disjId, e.slot.occ)
      if (e.disjId >= 0 && !anchored.contains(dKey)) {
        // whole-alternative abstraction: emit one EDisj per occurrence
        if (!emittedDisj.contains(dKey)) {
          emittedDisj += dKey
          out += EDisj(e.disjId, e.slot.occ, dag.disjAlts(e.disjId))
        }
      } else {
        (st.move, e.label) match {
          case (Move.MatchM, LitLabel(c))  => out += EChar(c)
          case (Move.MatchM, ClsLabel(_))  => out += EChar(s(st.inIdx))
          case (Move.MatchM, MaskLabel(t)) => out += EMask(t, e.slot, Some(st.inIdx))
          case (_,           LitLabel(c))  => out += EChar(c)
          case (Move.Sub,    ClsLabel(cc)) => out += ECls(cc, e.slot, Some(s(st.inIdx)))
          case (_,           ClsLabel(cc)) => out += ECls(cc, e.slot, None)
          case (_,           MaskLabel(t)) => out += EMask(t, e.slot, None)
        }
      }
    }
    out.result()
  }

  /** Captured transitions of a value that matches the pattern — the training
    * signal for concretization constraints (§3.4).
    *
    * @param clsChars   per class-slot, the consumed character
    * @param disjChoice per disjunction occurrence `SlotKey(disjId, occ, 0)`,
    *                   the chosen alternative
    * @param maskAt     per mask slot, the input position of the consumed mask
    */
  final case class Captures(clsChars: Map[SlotKey, Char],
                            disjChoice: Map[SlotKey, String],
                            maskAt: Map[SlotKey, Int])

  /** Extract captures of a matching value; `None` when `s` is not in the
    * DAG's language.
    */
  def captures(dag: Dag, s: String): Option[Captures] =
    align(dag, s).map { path =>
      var cls  = Map.empty[SlotKey, Char]
      var disj = Map.empty[SlotKey, String]
      var mask = Map.empty[SlotKey, Int]
      for (i <- path.indices) {
        val e = dag.edges(path(i))
        e.label match {
          case ClsLabel(_)  => cls += e.slot -> s(i)
          case MaskLabel(_) => mask += e.slot -> i
          case LitLabel(_)  => ()
        }
        if (e.disjId >= 0) disj += SlotKey(e.disjId, e.slot.occ, 0) -> dag.disjAlts(e.disjId)(e.disjAlt)
      }
      Captures(cls, disj, mask)
    }

  /** Edit operations of `rep` that touch alphanumeric (or semantic)
    * characters of `s` or of the pattern — ranker feature (2) of §3.5.
    */
  private[repair] def alnumEdits(dag: Dag, rep: AbstractRepair, s: String): Int = {
    def alnumAt(i: Int): Boolean =
      i >= 0 && i < s.length && { val c = s(i); c.isLetterOrDigit || Masks.isMask(c) }
    rep.steps.count { st =>
      st.move match {
        case Move.MatchM => false
        case Move.Del    => alnumAt(st.inIdx)
        case _ =>
          // a substitution destroying an alphanumeric input char counts too
          (st.move == Move.Sub && alnumAt(st.inIdx)) || (dag.edges(st.edge).label match {
            case LitLabel(c)  => c.isLetterOrDigit
            case ClsLabel(cc) => cc != CharClassT.Space
            case MaskLabel(_) => true
          })
      }
    }
  }
}
