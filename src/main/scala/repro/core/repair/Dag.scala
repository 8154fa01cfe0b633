package repro.core.repair

import repro.core.pattern._
import scala.collection.mutable

/** The unrolled NFA-DAG of a pattern for a value of length `n` (§3.3).
  *
  * The pattern is interpreted as an NFA whose edges consume one character;
  * loops (one-or-more classes and quantified groups) are unrolled to depth
  * ⌈len(v)/len(cycle)⌉, giving an acyclic graph. ε-edges connect loop-body
  * exits to the loop exit; the DP works over char edges only, with
  * predecessor sets computed through ε-closure.
  */
final class Dag private[repair] (
    val pattern: Pattern,
    val n: Int,
    val edges: Vector[Edge],
    val numStates: Int,
    val accept: Int,
    val eps: Vector[(Int, Int)],
    val disjAlts: Map[Int, Vector[String]],
) {

  /** ε-reachable state set per state (forward, reflexive). */
  lazy val ereach: Array[Set[Int]] = {
    val out  = Array.fill(numStates)(Set.empty[Int])
    val byFrom = eps.groupBy(_._1)
    for (s <- (numStates - 1) to 0 by -1) {
      var set = Set(s)
      for ((_, t) <- byFrom.getOrElse(s, Vector.empty)) set ++= out(t)
      out(s) = set
    }
    out
  }

  /** Edge ids whose source is ε-reachable from the start state. */
  lazy val startEdges: Set[Int] =
    edges.iterator.filter(e => ereach(0).contains(e.from)).map(_.id).toSet

  /** Edge ids from which the accept state is ε-reachable after traversal. */
  lazy val acceptingEdges: Set[Int] =
    edges.iterator.filter(e => ereach(e.to).contains(accept)).map(_.id).toSet

  /** Predecessor edges of each edge (via ε-closure). Topologically safe:
    * every predecessor has a strictly smaller source state.
    */
  lazy val preds: Array[Array[Int]] = {
    val out = Array.ofDim[Array[Int]](edges.length)
    for (j <- edges.indices) {
      val tail = edges(j).from
      out(j) = edges.iterator.filter(e => ereach(e.to).contains(tail)).map(_.id).toArray
    }
    out
  }
}

object Dag {

  /** Token tree with stable pre-order ids (shared across loop unrollings). */
  private sealed trait ITok
  private final case class ILeaf(tok: Tok, id: Int)                 extends ITok
  private final case class IGroup(children: Vector[ITok], id: Int)  extends ITok

  private def assignIds(toks: Vector[Tok], next: Int): (Vector[ITok], Int) = {
    var id  = next
    val out = toks.map {
      case Group(children) =>
        val gid = id; id += 1
        val (cs, nx) = assignIds(children, id)
        id = nx
        IGroup(cs, gid)
      case t =>
        val tid = id; id += 1
        ILeaf(t, tid)
    }
    (out, id)
  }

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

  /** Build the unrolled DAG of `pattern` for a value of length `n`. */
  def build(pattern: Pattern, n: Int): Dag = {
    val edges    = Vector.newBuilder[Edge]
    val eps      = Vector.newBuilder[(Int, Int)]
    val disjAlts = mutable.Map.empty[Int, Vector[String]]
    var nState   = 1 // state 0 = start
    var nEdge    = 0

    def newState(): Int = { val s = nState; nState += 1; s }
    def addEdge(from: Int, to: Int, label: EdgeLabel, slot: SlotKey,
                disjId: Int = -1, disjAlt: Int = -1): Unit = {
      edges += Edge(nEdge, from, to, label, slot, disjId, disjAlt)
      nEdge += 1
    }

    def emit(itok: ITok, entry: Int, occ: Vector[Int]): Int = itok match {
      case ILeaf(Lit(s), id) =>
        var cur = entry
        for ((ch, idx) <- s.zipWithIndex) {
          val nxt = newState()
          addEdge(cur, nxt, LitLabel(ch), SlotKey(id, occ, idx))
          cur = nxt
        }
        cur

      case ILeaf(Cls(cc, Some(m)), id) =>
        var cur = entry
        for (idx <- 0 until m) {
          val nxt = newState()
          addEdge(cur, nxt, ClsLabel(cc), SlotKey(id, occ, idx))
          cur = nxt
        }
        cur

      case ILeaf(Cls(cc, None), id) =>
        // one-or-more: unroll to depth max(1, n); exits after every copy
        val r    = math.max(1, n)
        var cur  = entry
        val ends = Vector.newBuilder[Int]
        for (idx <- 0 until r) {
          val nxt = newState()
          addEdge(cur, nxt, ClsLabel(cc), SlotKey(id, occ, idx))
          ends += nxt
          cur = nxt
        }
        val exit = newState()
        ends.result().foreach(e => eps += (e -> exit))
        exit

      case ILeaf(Disj(alts), id) =>
        disjAlts(id) = alts
        val ends = Vector.newBuilder[Int]
        for ((alt, ai) <- alts.zipWithIndex) {
          var cur = entry
          for ((ch, idx) <- alt.zipWithIndex) {
            val nxt = newState()
            addEdge(cur, nxt, LitLabel(ch), SlotKey(id, occ, idx), disjId = id, disjAlt = ai)
            cur = nxt
          }
          ends += cur
        }
        val exit = newState()
        ends.result().foreach(e => eps += (e -> exit))
        exit

      case ILeaf(MaskTok(t), id) =>
        val nxt = newState()
        addEdge(entry, nxt, MaskLabel(t), SlotKey(id, occ, 0))
        nxt

      case ILeaf(t, _) =>
        throw new IllegalStateException(s"unexpected token $t")

      case IGroup(children, _) =>
        val cycle = math.max(1, children.map { case ILeaf(t, _) => minCharLen(t); case g: IGroup => groupMin(g) }.sum)
        val r     = math.max(1, math.ceil(n.toDouble / cycle).toInt)
        var cur   = entry
        val ends  = Vector.newBuilder[Int]
        for (c <- 0 until r) {
          for (child <- children) cur = emit(child, cur, occ :+ c)
          ends += cur
        }
        val exit = newState()
        ends.result().foreach(e => eps += (e -> exit))
        exit
    }

    def groupMin(g: IGroup): Int =
      g.children.map { case ILeaf(t, _) => minCharLen(t); case gg: IGroup => groupMin(gg) }.sum

    val (itoks, _) = assignIds(pattern.toks, 0)
    var cur = 0
    for (it <- itoks) cur = emit(it, cur, Vector.empty)

    new Dag(pattern, n, edges.result(), nState, cur, eps.result(), disjAlts.toMap)
  }
}
