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
  * A virtual start edge, id -1, is the only predecessor of the edges in the
  * DAG's start mask and carries cost(i, -1) = i (leading deletions). Other
  * predecessors are read from an edge's mask bits in ascending id order.
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

    // the edges s(i) matches, one mask per input char
    val w     = dag.words
    val hits  = new Array[Long](n * w)
    for (i <- 0 until n) dag.matchInto(s.charAt(i), hits, i * w)

    // cost at layer i of predecessor jp; the virtual start costs i deletions
    def at(i: Int, jp: Int): Int = if (jp < 0) i else cost(i)(jp)

    // edge j's first predecessor of least cost in `row`, from its mask bits in
    // ascending order (all below j); -1, the virtual start, for a start edge
    def cheapestPred(row: Array[Int], j: Int): Int = {
      if (dag.isStart(j)) return -1
      var best = -1
      var k    = 0
      while (k <= (j >>> 6)) {
        var x = dag.predMasks(j * w + k)
        while (x != 0) {
          val jp = (k << 6) + java.lang.Long.numberOfTrailingZeros(x)
          if (best < 0 || row(jp) < row(best)) best = jp
          x &= x - 1
        }
        k += 1
      }
      best
    }

    for (i <- 0 to n; j <- 0 until m) {
      var best = Inf; var bMove = M; var bPrev = -1
      if (i >= 1) {
        // M or S: consume s(i-1) while traversing j
        val mc = if ((hits((i - 1) * w + (j >>> 6)) & (1L << j)) != 0) 0 else 1
        val jp = cheapestPred(cost(i - 1), j)
        best = at(i - 1, jp) + mc; bMove = if (mc == 0) M else S; bPrev = jp
        // D: delete s(i-1) after having traversed j
        if (cost(i - 1)(j) + 1 < best) { best = cost(i - 1)(j) + 1; bMove = D; bPrev = j }
      }

      // I: traverse j by inserting its character, consuming nothing
      val jp = cheapestPred(cost(i), j)
      if (at(i, jp) + 1 < best) { best = at(i, jp) + 1; bMove = I; bPrev = jp }

      cost(i)(j) = best; move(i)(j) = bMove; prev(i)(j) = bPrev
    }

    val candidates = (0 until m).filter(dag.isAccepting).map(j => (cost(n)(j), j))
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
    *
    * A bit-parallel forward pass over the DAG's edge masks: row `i` holds
    * the edges on which match moves can consume `s.take(i + 1)`, that is the
    * edges `s(i)` matches that have a predecessor in row `i - 1` (the start
    * edges for row 0). It stops at the first empty row. The backtrace takes
    * the highest set bit of the last row and the accepting mask, then at each
    * step the lowest set bit of the edge's predecessor mask and the row
    * before: the tie-break above, in id order. The concretizer runs it on
    * every distinct matching value.
    */
  def align(dag: Dag, s: String): Option[Array[Int]] = {
    val n = s.length
    if (dag.edges.isEmpty) return if (n == 0) Some(Array.emptyIntArray) else None
    if (n == 0) return None
    val w    = dag.words
    val pred = dag.predMasks
    val ok   = new Array[Long](n * w)

    /** The lowest set bit of `mask(at ..)` and `ok(row ..)` over `words`, or -1. */
    def lowest(mask: Array[Long], at: Int, row: Int, words: Int): Int = {
      var k = 0
      while (k < words) {
        val x = mask(at + k) & ok(row + k)
        if (x != 0) return (k << 6) + java.lang.Long.numberOfTrailingZeros(x)
        k += 1
      }
      -1
    }

    dag.matchInto(s.charAt(0), ok, 0)
    var alive = false
    for (k <- 0 until w) { ok(k) &= dag.startMask(k); alive |= ok(k) != 0 }
    var i = 1
    while (alive && i < n) {
      val row = i * w
      dag.matchInto(s.charAt(i), ok, row)
      alive = false
      var k = 0
      while (k < w) {
        var cand = ok(row + k)
        var kept = 0L
        while (cand != 0) {
          val bit = cand & -cand
          val j   = (k << 6) + java.lang.Long.numberOfTrailingZeros(cand)
          // predecessors have smaller ids, so only words up to j's own
          if (lowest(pred, j * w, row - w, k + 1) >= 0) kept |= bit
          cand ^= bit
        }
        ok(row + k) = kept
        alive |= kept != 0
        k += 1
      }
      i += 1
    }
    if (!alive) return None

    var last = -1
    var k    = w - 1
    while (last < 0 && k >= 0) {
      val x = ok((n - 1) * w + k) & dag.acceptMask(k)
      if (x != 0) last = (k << 6) + 63 - java.lang.Long.numberOfLeadingZeros(x)
      k -= 1
    }
    if (last < 0) return None
    val path = new Array[Int](n)
    path(n - 1) = last
    for (i <- n - 1 until 0 by -1) path(i - 1) = lowest(pred, path(i) * w, (i - 1) * w, w)
    Some(path)
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
