package repro.core.repair

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
  * A virtual start "edge" carries cost(i, start) = i (leading deletions).
  * The answer is min over accepting edges of cost(n, ·); MOVES backpointers
  * reconstruct the minimal abstract edit program.
  */
object EditDp {

  private val Inf = Int.MaxValue / 4

  // move codes in the backpointer matrix
  private val M = 0: Byte; private val S = 1: Byte
  private val I = 2: Byte; private val D = 3: Byte

  /** Minimal abstract edit program turning `s` into a member of the DAG's
    * pattern language; `None` if the DAG has no edges.
    * With `allowEdits = false` only match moves are permitted, i.e. the
    * result is the zero-cost alignment of a value already in the language.
    * `preferLong` resolves equal-cost accepting edges toward the longest
    * traversal (substitution-flavoured repairs) vs the shortest
    * (deletion-flavoured); [[minimalRepairs]] returns both for ranking.
    */
  def minimalRepair(dag: Dag, s: String, allowEdits: Boolean = true,
                    preferLong: Boolean = true): Option[AbstractRepair] =
    solve(dag, s, allowEdits, Vector(preferLong)).headOption

  /** Both tie-preference variants of the minimal repair (deduplicated):
    * equal-cost programs can differ in whether an offending character is
    * substituted or deleted — the ranker decides (§3.5).
    */
  def minimalRepairs(dag: Dag, s: String): Vector[AbstractRepair] =
    solve(dag, s, allowEdits = true, Vector(true, false))

  /** Fill COST/MOVES once, then backtrack from the accepting edge each
    * `preferLong` tie-break picks (the tables do not depend on it). Equal
    * picks give one repair; distinct picks give distinct step sequences,
    * since the last step traverses the picked edge.
    */
  private def solve(dag: Dag, s: String, allowEdits: Boolean,
                    preferLong: Vector[Boolean]): Vector[AbstractRepair] = {
    val m = dag.edges.length
    val n = s.length
    if (m == 0) return Vector.empty

    val cost = Array.fill(n + 1, m)(Inf)
    val move = Array.ofDim[Byte](n + 1, m)
    val prev = Array.fill(n + 1, m)(-1)
    val editCost = if (allowEdits) 1 else Inf

    // cost of the virtual start pseudo-edge at layer i
    def startCost(i: Int): Int =
      if (i == 0) 0 else if (allowEdits) i else Inf

    for (i <- 0 to n; j <- 0 until m) {
      val e     = dag.edges(j)
      val isStart = dag.startEdges.contains(j)
      var best  = Inf
      var bMove = M
      var bPrev = -1

      // M or S: consume s(i-1) while traversing j
      if (i >= 1) {
        val mc = if (e.label.matches(s(i - 1))) 0 else editCost
        if (mc < Inf) {
          if (isStart && startCost(i - 1) + mc < best) {
            best = startCost(i - 1) + mc; bMove = if (mc == 0) M else S; bPrev = -1
          }
          for (jp <- dag.preds(j)) {
            val c = cost(i - 1)(jp)
            if (c + mc < best) { best = c + mc; bMove = if (mc == 0) M else S; bPrev = jp }
          }
        }
        // D: delete s(i-1) after having traversed j
        if (allowEdits && cost(i - 1)(j) + 1 < best) {
          best = cost(i - 1)(j) + 1; bMove = D; bPrev = j
        }
      }

      // I: traverse j by inserting its character, consuming nothing
      if (allowEdits) {
        if (isStart && startCost(i) + 1 < best) { best = startCost(i) + 1; bMove = I; bPrev = -1 }
        for (jp <- dag.preds(j)) {
          val c = cost(i)(jp)
          if (c + 1 < best) { best = c + 1; bMove = I; bPrev = jp }
        }
      }

      cost(i)(j) = best; move(i)(j) = bMove; prev(i)(j) = bPrev
    }

    val candidates = dag.acceptingEdges.toVector.map(j => (cost(n)(j), j)).filter(_._1 < Inf)
    if (candidates.isEmpty) return Vector.empty
    // tie-break on equal cost per `preferLong` (see minimalRepairs)
    val picks = preferLong.map { long =>
      if (long) candidates.minBy { case (c, j) => (c, -j) }
      else candidates.minBy { case (c, j) => (c, j) }
    }
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

  /** Zero-cost alignment of a value in the pattern's language. */
  def align(dag: Dag, s: String): Option[AbstractRepair] =
    minimalRepair(dag, s, allowEdits = false).filter(_.cost == 0)

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
    * @param disjChoice per disjunction occurrence, the chosen alternative
    * @param maskAt     per mask slot, the input position of the consumed mask
    */
  final case class Captures(clsChars: Map[SlotKey, Char],
                            disjChoice: Map[(Int, Vector[Int]), Int],
                            maskAt: Map[SlotKey, Int])

  /** Extract captures of a matching value; `None` when `s` is not in the
    * DAG's language.
    */
  def captures(dag: Dag, s: String): Option[Captures] =
    align(dag, s).map { r =>
      var cls  = Map.empty[SlotKey, Char]
      var disj = Map.empty[(Int, Vector[Int]), Int]
      var mask = Map.empty[SlotKey, Int]
      for (st <- r.steps if st.move == Move.MatchM) {
        val e = dag.edges(st.edge)
        e.label match {
          case ClsLabel(_)  => cls += e.slot -> s(st.inIdx)
          case MaskLabel(_) => mask += e.slot -> st.inIdx
          case LitLabel(_)  => ()
        }
        if (e.disjId >= 0) disj += (e.disjId, e.slot.occ) -> e.disjAlt
      }
      Captures(cls, disj, mask)
    }
}
