package repro.core.repair

import org.scalatest.funsuite.AnyFunSuite
import repro.core.pattern._

class DagSpec extends AnyFunSuite {
  import CharClassT._

  test("literal chain: one edge per character") {
    val d = Dag.build(Pattern(Lit("abc")), 3)
    assert(d.edges.size == 3)
    assert(d.edges.map(_.label) == Vector(LitLabel('a'), LitLabel('b'), LitLabel('c')))
    assert(d.preds.map(_.toVector).toVector == Vector(Vector(-1), Vector(0), Vector(1)))
    assert(d.startEdges == Set(0))
    assert(d.acceptingEdges == Set(2))
  }

  test("predecessor ids are smaller than edge ids (topological)") {
    val d = Dag.build(Pattern(MaskTok("country"), Lit("-"), Cls(Digit, None), Disj(Vector("CAT", "PRO"))), 8)
    assert(d.edges.indices.forall(j => d.preds(j).nonEmpty && d.preds(j).forall(_ < j)))
    val g = Dag.build(Pattern(Group(Vector(Lit("a"), Group(Vector(Cls(Digit, None))))), Lit("!")), 6)
    assert(g.edges.indices.forall(j => g.preds(j).nonEmpty && g.preds(j).forall(_ < j)))
  }

  test("fixed-length class produces exactly n edges") {
    val d = Dag.build(Pattern(Cls(Digit, Some(4))), 4)
    assert(d.edges.size == 4)
    assert(d.edges.map(_.slot.charIdx) == Vector(0, 1, 2, 3))
  }

  test("one-or-more class unrolls to value length with exits") {
    val d = Dag.build(Pattern(Cls(Digit, None)), 5)
    assert(d.edges.size == 5)
    assert(d.preds.map(_.toVector).toVector == Vector(Vector(-1), Vector(0), Vector(1), Vector(2), Vector(3)))
    assert(d.startEdges == Set(0))
    assert(d.acceptingEdges == Set(0, 1, 2, 3, 4)) // every copy can exit
  }

  test("zero-length value still yields at least one edge per token") {
    val d = Dag.build(Pattern(Cls(Digit, None)), 0)
    assert(d.edges.size == 1)
  }

  test("disjunction branches carry disjId and alt") {
    val d = Dag.build(Pattern(Disj(Vector("CAT", "PRO"))), 3)
    assert(d.edges.size == 6)
    assert(d.edges.forall(_.disjId == 0))
    assert(d.edges.map(_.disjAlt).toSet == Set(0, 1))
    assert(d.disjAlts(0) == Vector("CAT", "PRO"))
    // C-A-T is edges 0-2, P-R-O is edges 3-5
    assert(d.preds.map(_.toVector).toVector ==
      Vector(Vector(-1), Vector(0), Vector(1), Vector(-1), Vector(3), Vector(4)))
    assert(d.acceptingEdges == Set(2, 5))
  }

  test("group unrolls ceil(n / cycle) times") {
    // unit A[0-9]. has cycle length 3; value length 4 → 2 copies (Fig. 4)
    val d = Dag.build(Pattern(Group(Vector(Lit("A"), Cls(Digit, Some(1)), Lit(".")))), 4)
    assert(d.edges.size == 6)
    val occs = d.edges.map(_.slot.occ).distinct
    assert(occs == Vector(Vector(0), Vector(1)))
  }

  test("group slot ids are stable across copies") {
    val d = Dag.build(Pattern(Group(Vector(Lit("A"), Cls(Digit, Some(1)), Lit(".")))), 6)
    val clsEdges = d.edges.filter(_.label.isInstanceOf[ClsLabel])
    assert(clsEdges.map(_.slot.tokId).distinct.size == 1)
  }

  test("startEdges include all first-token edges") {
    val d = Dag.build(Pattern(Disj(Vector("CAT", "PRO"))), 3)
    // first char edge of each alternative
    assert(d.startEdges == Set(0, 3))
  }

  test("accepting edges are every copy of a trailing one-or-more class") {
    val d = Dag.build(Pattern(Lit("ab"), Cls(Digit, None)), 3)
    // a, b, then three class copies, each of which can be last
    assert(d.acceptingEdges == Set(2, 3, 4))
    assert(d.edges.filter(e => d.acceptingEdges(e.id)).forall(_.label.isInstanceOf[ClsLabel]))
  }

  test("preds reach across group copies") {
    val d = Dag.build(Pattern(Group(Vector(Lit("x"))), Lit("!")), 2)
    val bang = d.edges.find(_.label == LitLabel('!')).get
    // '!' can follow either copy of 'x'
    assert(d.preds(bang.id).toVector == Vector(0, 1))
    assert(d.acceptingEdges == Set(bang.id))
  }

  test("nested group unrolls recursively") {
    val p = Pattern(Group(Vector(Lit("a"), Group(Vector(Cls(Digit, Some(1)))))))
    val d = Dag.build(p, 4)
    assert(d.edges.nonEmpty)
    // sanity: a1 and a12 and a1a2 all alignable
    assert(EditDp.align(d, "a1a2").isDefined)
  }
}
