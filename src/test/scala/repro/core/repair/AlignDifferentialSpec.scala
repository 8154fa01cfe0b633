package repro.core.repair

import org.scalatest.funsuite.AnyFunSuite
import repro.core.pattern._
import scala.util.Random

/** The Boolean-matrix `EditDp.align`: it fills `ok(i)(j)` (match moves
  * consume the first `i` characters and end on edge `j`) for every (i, j),
  * then traces the path back from the last accepting edge through each
  * edge's first aligned predecessor. `EditDp.align` is checked against it.
  * It reads the DAG's graph as id lists, taken bit by bit from its masks.
  */
object AlignReference {

  private def bit(mask: Array[Long], at: Int, j: Int): Boolean = ((mask(at + j / 64) >>> (j % 64)) & 1L) == 1L

  /** The ids of the set bits of the DAG's mask at `at`, ascending. */
  private def ids(dag: Dag, mask: Array[Long], at: Int): Vector[Int] =
    (0 until dag.words).filter(k => mask(at + k) != 0).flatMap(k => (k * 64 until k * 64 + 64).filter(bit(mask, at, _))).toVector

  /** Edge `j`'s predecessors in id order; -1 is the virtual start. */
  def preds(dag: Dag, j: Int): Vector[Int] =
    (if (bit(dag.startMask, 0, j)) Vector(-1) else Vector.empty) ++ ids(dag, dag.predMasks, j * dag.words)

  def startEdges(dag: Dag): Set[Int]     = ids(dag, dag.startMask, 0).toSet
  def acceptingEdges(dag: Dag): Set[Int] = ids(dag, dag.acceptMask, 0).toSet

  def align(dag: Dag, s: String): Option[Array[Int]] = {
    val n = s.length
    if (dag.edges.isEmpty) return if (n == 0) Some(Array.emptyIntArray) else None
    val ps = dag.edges.indices.map(preds(dag, _))
    val ok = Array.ofDim[Boolean](n + 1, dag.edges.length)
    def okAt(i: Int, jp: Int): Boolean = if (jp < 0) i == 0 else ok(i)(jp)
    for (i <- 1 to n; j <- dag.edges.indices)
      ok(i)(j) = dag.edges(j).label.matches(s(i - 1)) && ps(j).exists(okAt(i - 1, _))
    acceptingEdges(dag).filter(ok(n)(_)).maxOption.map { last =>
      (n until 1 by -1).scanLeft(last)((j, i) => ps(j).find(okAt(i - 1, _)).get).reverse.toArray
    }
  }
}

class AlignDifferentialSpec extends AnyFunSuite {
  import CharClassT._

  private val maskTypes = Vector("country", "city")
  private val litChars  = "abAB09-#.: "

  private def randomTok(rnd: Random, depth: Int): Tok = rnd.nextInt(if (depth < 2) 6 else 5) match {
    case 0 => Lit(Vector.fill(1 + rnd.nextInt(3))(litChars(rnd.nextInt(litChars.length))).mkString)
    case 1 => Cls(all(rnd.nextInt(all.length)), Some(1 + rnd.nextInt(4)))
    case 2 => Cls(all(rnd.nextInt(all.length)), None)
    case 3 =>
      val alts = Vector.fill(2 + rnd.nextInt(2))(Vector.fill(1 + rnd.nextInt(3))("abcAB1#"(rnd.nextInt(7))).mkString).distinct
      Disj(if (alts.size >= 2) alts else alts :+ (alts.head + "#"))
    case 4 => MaskTok(maskTypes(rnd.nextInt(maskTypes.length)))
    case _ => Group(Vector.fill(1 + rnd.nextInt(3))(randomTok(rnd, depth + 1)))
  }

  private def randomPattern(rnd: Random): Pattern =
    if (rnd.nextInt(40) == 0) Pattern(Vector.empty[Tok])
    else Pattern(Vector.fill(1 + rnd.nextInt(6))(randomTok(rnd, 0)))

  /** A member of `p`'s language; `run` bounds a one-or-more repetition. */
  private def member(p: Pattern, rnd: Random, run: Int): String = {
    def tok(t: Tok): String = t match {
      case Lit(s)       => s
      case Cls(cc, len) => Vector.fill(len.getOrElse(1 + rnd.nextInt(run)))(cc.sample(rnd.nextInt(cc.sample.length))).mkString
      case Disj(alts)   => alts(rnd.nextInt(alts.length))
      case m: MaskTok   => m.maskChar.toString
      case Group(ts)    => Vector.fill(1 + rnd.nextInt(3))(ts.map(tok).mkString).mkString
    }
    p.toks.map(tok).mkString
  }

  /** One substituted, inserted or deleted character. */
  private def mutated(s: String, rnd: Random): String = {
    val alphabet = litChars + "xyZ5" + Masks.charFor("country")
    val c = alphabet(rnd.nextInt(alphabet.length))
    val i = rnd.nextInt(s.length + 1)
    rnd.nextInt(3) match {
      case 0 if s.nonEmpty => s.patch(math.min(i, s.length - 1), c.toString, 1)
      case 1               => s.patch(i, c.toString, 0)
      case _ if s.nonEmpty => s.patch(math.min(i, s.length - 1), "", 1)
      case _               => c.toString
    }
  }

  private def value(p: Pattern, rnd: Random): String = rnd.nextInt(8) match {
    case 0 => ""
    case 1 => Vector.fill(rnd.nextInt(12))((litChars + "xyZ5")(rnd.nextInt(15))).mkString
    case 2 | 3 => mutated(member(p, rnd, if (rnd.nextBoolean()) 4 else 20), rnd)
    case _ => member(p, rnd, if (rnd.nextBoolean()) 4 else 20)
  }

  test("align returns the reference's path on random patterns and values") {
    val rnd = new Random(20261020)
    var aligned, rejected, over64, over128 = 0
    for (_ <- 0 until 4000) {
      val p = randomPattern(rnd)
      val v = value(p, rnd)
      if (v.length <= 60) {
        val dag = Dag.build(p, v.length)
        val got = EditDp.align(dag, v).map(_.toVector)
        val ref = AlignReference.align(dag, v).map(_.toVector)
        assert(got == ref, s"pattern ${p.regex}, value '$v'")
        if (ref.isDefined) aligned += 1 else rejected += 1
        if (dag.edges.length > 64) over64 += 1
        if (dag.edges.length > 128) over128 += 1
      }
    }
    assert(aligned > 500 && rejected > 500, s"$aligned aligned, $rejected rejected")
    assert(over64 > 50 && over128 > 20, s"$over64 DAGs over 64 edges, $over128 over 128")
  }

  test("predecessor lists are ascending and below the edge's id; -1 stands alone") {
    val rnd = new Random(20261021)
    var starts, joins = 0
    for (_ <- 0 until 2000) {
      val p   = randomPattern(rnd)
      val dag = Dag.build(p, rnd.nextInt(24))
      for (j <- dag.edges.indices) {
        val ps = AlignReference.preds(dag, j)
        assert(ps.nonEmpty && ps == ps.sorted.distinct && ps.forall(_ < j), s"pattern ${p.regex}, edge $j: $ps")
        assert(!ps.contains(-1) || ps == Vector(-1), s"pattern ${p.regex}, edge $j: $ps")
        if (ps == Vector(-1)) starts += 1
        if (ps.size > 1) joins += 1
      }
    }
    assert(starts > 1000 && joins > 1000, s"$starts start edges, $joins edges with several predecessors")
  }

  test("values of length 0 align only on the edgeless DAG") {
    val rnd = new Random(7)
    for (_ <- 0 until 300) {
      val p   = randomPattern(rnd)
      val dag = Dag.build(p, 0)
      assert(EditDp.align(dag, "").map(_.toVector) == AlignReference.align(dag, "").map(_.toVector))
    }
  }

  test("ambiguous alignments take the last accepting edge and the first aligned predecessor") {
    // adjacent one-or-more classes and a group of one-or-more classes: many paths
    for ((p, v) <- Seq(
           Pattern(Cls(Lower, None), Cls(AlphaNum, None)) -> "abcdef",
           Pattern(Group(Vector(Cls(Digit, None), Cls(AlphaNum, None)))) -> "1a2b3c4d",
           Pattern(Cls(Alpha, None), Disj(Vector("ab", "b")), Cls(Lower, None)) -> "xabab")) {
      val dag = Dag.build(p, v.length)
      assert(EditDp.align(dag, v).map(_.toVector) == AlignReference.align(dag, v).map(_.toVector), p.regex)
      assert(AlignReference.align(dag, v).isDefined, p.regex)
    }
  }
}
