package repro.core.repair

import repro.core.pattern._

/** The unrolled NFA-DAG of a pattern for a value of length `n` (§3.3).
  *
  * Every edge consumes one character. Loops (one-or-more classes and
  * quantified groups) are unrolled to depth ⌈len(v)/len(cycle)⌉, giving an
  * acyclic graph.
  *
  * The graph is held only as edge masks for bit-parallel simulation
  * (Baeza-Yates & Gonnet, CACM 1992): a mask is `words` longs, bit `j % 64`
  * of word `j / 64` standing for edge `j`. The DAG keeps one predecessor mask
  * per edge, the start and accepting masks, and one mask per distinct edge
  * label, so the edges a character matches are an OR over its few labels.
  * Two facts of the builder make the masks a topological order: every bit of
  * edge `j`'s predecessor mask is below `j`, and a start edge's only
  * predecessor is the virtual start (its predecessor mask is empty).
  *
  * @param predMasks  edge `j`'s predecessors, the virtual start left out, in
  *                   the mask at `predMasks(j * words)`
  * @param startMask  edges a traversal may start on
  * @param acceptMask edges a traversal of the whole pattern may end on
  */
final class Dag private (
    val edges: Vector[Edge],
    private[repair] val predMasks: Array[Long],
    private[repair] val startMask: Array[Long],
    private[repair] val acceptMask: Array[Long],
    val disjAlts: Map[Int, Vector[String]],
) {

  /** Longs per edge mask. */
  private[repair] val words: Int = (edges.length + 63) >>> 6

  private[repair] def isStart(j: Int): Boolean     = (startMask(j >>> 6) & (1L << j)) != 0
  private[repair] def isAccepting(j: Int): Boolean = (acceptMask(j >>> 6) & (1L << j)) != 0

  /** The distinct edge labels, and the mask of each one's edges at
    * `labelMasks(l * words)`.
    */
  private val labels: Array[EdgeLabel] = edges.iterator.map(_.label).distinct.toArray
  private val labelMasks: Array[Long] = {
    val out = new Array[Long](labels.length * words)
    for (e <- edges) out(labels.indexOf(e.label) * words + (e.id >>> 6)) |= 1L << e.id
    out
  }

  /** ORs the mask of the edges whose label matches `c` into `out` at `at`. */
  private[repair] def matchInto(c: Char, out: Array[Long], at: Int): Unit = {
    var l = 0
    while (l < labels.length) {
      if (labels(l).matches(c)) {
        var k = 0
        while (k < words) { out(at + k) |= labelMasks(l * words + k); k += 1 }
      }
      l += 1
    }
  }
}

object Dag {

  /** Minimum number of characters one traversal of `tok` consumes — the
    * paper's cycle length for unrolling.
    */
  private def minCharLen(tok: Tok): Int = tok match {
    case Lit(s)          => s.length
    case Cls(_, Some(m)) => m
    case Cls(_, None)    => 1
    case Disj(alts)      => alts.map(_.length).min
    case MaskTok(_)      => 1
    case Group(children) => children.map(minCharLen).sum
  }

  /** Number of pre-order ids `tok` takes: one, plus its children's for a group. */
  private def size(tok: Tok): Int = tok match {
    case Group(children) => 1 + children.map(size).sum
    case _               => 1
  }

  /** Build the unrolled DAG of `pattern` for a value of length `n`.
    *
    * Tokens are emitted from frontiers: each token takes the ids of the edges
    * that may come right before its first edge and returns those that may
    * come right after it. A new edge's predecessors are the current
    * frontier, and the final frontier is the set of accepting edges. A
    * frontier lists its edges in id order, and the virtual start (-1) only
    * ever stands alone in one. Slots carry the tokens' pre-order ids, shared
    * across loop copies.
    */
  def build(pattern: Pattern, n: Int): Dag = {
    val edges    = Vector.newBuilder[Edge]
    val fronts   = scala.collection.mutable.ArrayBuffer.empty[Vector[Int]] // per edge, by id
    val disjAlts = Map.newBuilder[Int, Vector[String]]

    def edge(front: Vector[Int], label: EdgeLabel, slot: SlotKey,
             disjId: Int = -1, disjAlt: Int = -1): Vector[Int] = {
      edges += Edge(fronts.length, label, slot, disjId, disjAlt)
      fronts += front
      Vector(fronts.length - 1)
    }

    def emit(tok: Tok, id: Int, front: Vector[Int], occ: Vector[Int]): Vector[Int] = tok match {
      case Lit(s) =>
        s.indices.foldLeft(front)((f, i) => edge(f, LitLabel(s(i)), SlotKey(id, occ, i)))
      case Cls(cc, Some(m)) =>
        (0 until m).foldLeft(front)((f, i) => edge(f, ClsLabel(cc), SlotKey(id, occ, i)))
      case Cls(cc, None) =>
        // one-or-more: unroll to depth max(1, n); may exit after every copy
        (0 until math.max(1, n)).scanLeft(front)((f, i) => edge(f, ClsLabel(cc), SlotKey(id, occ, i))).tail.flatten.toVector
      case Disj(alts) =>
        disjAlts += id -> alts
        alts.zipWithIndex.flatMap { case (alt, ai) =>
          alt.indices.foldLeft(front)((f, i) => edge(f, LitLabel(alt(i)), SlotKey(id, occ, i), id, ai))
        }
      case MaskTok(t) =>
        edge(front, MaskLabel(t), SlotKey(id, occ, 0))
      case g @ Group(children) =>
        // ⌈n / cycle⌉ copies sharing the children's ids; may exit after every copy
        val r = math.max(1, math.ceil(n.toDouble / math.max(1, minCharLen(g))).toInt)
        (0 until r).scanLeft(front)((f, c) => seq(children, id + 1, f, occ :+ c)).tail.flatten.toVector
    }

    def seq(toks: Vector[Tok], firstId: Int, front: Vector[Int], occ: Vector[Int]): Vector[Int] = {
      var id = firstId
      toks.foldLeft(front) { (f, t) => val out = emit(t, id, f, occ); id += size(t); out }
    }

    val last   = seq(pattern.toks, 0, Vector(-1), Vector.empty)
    val words  = (fronts.length + 63) >>> 6
    val pred   = new Array[Long](fronts.length * words)
    val start  = new Array[Long](words)
    val accept = new Array[Long](words)
    for ((front, j) <- fronts.zipWithIndex; p <- front)
      if (p < 0) start(j >>> 6) |= 1L << j else pred(j * words + (p >>> 6)) |= 1L << p
    for (j <- last; if j >= 0) accept(j >>> 6) |= 1L << j
    new Dag(edges.result(), pred, start, accept, disjAlts.result())
  }
}
