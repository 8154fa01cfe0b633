package repro.core.pattern

import org.scalatest.funsuite.AnyFunSuite

class PatternLearnerSpec extends AnyFunSuite {
  import CharClassT._

  private def learn(vs: String*): PatternLearner.LearnedPatterns =
    PatternLearner.learn(vs.toVector)

  test("uniform digit column learns a single digit pattern") {
    val lp = learn("123", "456", "789")
    assert(lp.patterns.size == 1)
    val (p, cov) = lp.patterns.head
    assert(cov == 1.0)
    assert(p.matches("000") && !p.matches("0000") && !p.matches("12a"))
  }

  test("variable-length digit runs widen to one-or-more") {
    val lp = learn("1", "22", "333")
    assert(lp.patterns.size == 1)
    assert(lp.patterns.head._1.matches("4444"))
  }

  test("constant literal prefix is kept literal") {
    val lp = learn("QUAL-21", "QUAL-28", "QUAL-33")
    val p  = lp.patterns.head._1
    assert(p.matches("QUAL-99"))
    assert(!p.matches("QUAR-99"))
  }

  test("small repeated alternative set becomes a disjunction") {
    val lp = learn("A-CAT", "B-CAT", "C-PRO", "D-PRO")
    val p  = lp.patterns.head._1
    // first letter generalizes to a class, suffix to (CAT|PRO)
    assert(p.matches("Z-CAT") && p.matches("Z-PRO"))
    assert(!p.matches("Z-QUX"))
  }

  test("coverage threshold selects significant patterns") {
    val lp = learn("1", "2", "3", "4", "ab", "cd", "e f")
    val sig = lp.significant(0.4)
    assert(sig.size == 1)
    assert(sig.head._1.matches("7"))
  }

  test("values matching no significant pattern are detectable") {
    val lp  = learn("04:34", "05:23", "04:38", "03.45", "03:34")
    val sig = lp.significant(0.25)
    assert(sig.exists(_._1.matches("04:34")))
    assert(!sig.exists(_._1.matches("03.45"))) // the dotted outlier
  }

  test("the Fig-6 trap: both [A-Z]+ and [A-Z]+0 are significant") {
    val lp  = learn("ARG", "CHN0", "USA", "GER0", "FRA")
    val sig = lp.significant(0.2)
    assert(sig.exists(_._1.matches("USA")))
    assert(sig.exists(_._1.matches("CHN0"))) // the error is covered — not detected
  }

  test("the Fig-8 trap: C[0-9]{2} repeats enough to be significant") {
    val vs  = Vector("Chrome23", "Chrome21", "C30", "Chrome19", "Chrome22",
                     "C15", "C26", "Chrome17", "Chrome20", "Chrome25", "Chrome18")
    val sig = PatternLearner.learn(vs).significant(0.2)
    assert(sig.exists(_._1.matches("C30")))
    assert(sig.exists(_._1.matches("Chrome23")))
  }

  test("repetition detection learns (A[0-9].)+ from repeated units") {
    val lp = learn("A2.A3.", "A5.A7.", "A1.")
    val p  = lp.patterns.head._1
    assert(p.toks.exists(_.isInstanceOf[Group]))
    assert(p.matches("A9."))
    assert(p.matches("A1.A2.A3."))
    assert(!p.matches("A1"))
  }

  test("repetition across clusters with different counts merges") {
    val lp = learn("ab1", "ab1ab2", "ab3ab4ab5")
    assert(lp.patterns.size == 1)
    assert(lp.patterns.head._1.matches("ab9ab8ab7ab6"))
  }

  test("mask tokens survive learning") {
    val m  = Masks.charFor("country")
    val lp = learn(s"$m-123", s"$m-456", s"$m-789")
    val p  = lp.patterns.head._1
    assert(p.toks.head == MaskTok("country"))
    assert(p.matches(s"$m-000"))
    assert(!p.matches("US-000"))
  }

  test("mixed-case runs unify to alpha class") {
    // three case shapes → three clusters, which a cap of one unifies
    val lp = PatternLearner.learn(Vector("Abc1", "DEF2", "ghi3"), k = 1)
    assert(lp.patterns.map { case (p, cov) => (p.pretty, cov) } == Vector(("[a-zA-Z]{3}[0-9]", 1.0)))
  }

  test("cap merges compatible patterns down to k") {
    val vs = ('a' to 'z').map(c => s"$c${c.toUpper}1").toVector
    val lp = PatternLearner.learn(vs, k = 2)
    assert(lp.patterns.size <= 2)
    assert(lp.patterns.exists(_._1.matches("aA1")))
  }

  test("empty input learns nothing") {
    assert(PatternLearner.learn(Vector.empty).patterns.isEmpty)
  }

  test("single value column learns its exact shape") {
    val lp = learn("US-837")
    assert(lp.patterns.head._1.matches("US-837"))
    assert(lp.patterns.head._2 == 1.0)
  }

  test("coverage counts multiplicity") {
    val lp = PatternLearner.learn(Vector("a1", "a1", "a1", "b-2"))
    val top = lp.patterns.head
    assert(top._2 == 0.75)
  }

  test("an emoji delimiter keeps its column's pattern") {
    val e  = "\uD83D\uDE00"
    val lp = learn(s"ab${e}12", s"cd${e}34", s"ef${e}56", s"gh${e}78", s"ij${e}90", s"kl${e}11", "mn-22")
    val (top, coverage) = lp.patterns.head
    assert(coverage == 6.0 / 7, top.pretty)
    assert(top.matches(s"zz${e}00") && !top.matches("zz-00"))
  }

  test("distinct punctuation splits clusters") {
    val lp  = learn("a-1", "b-2", "c_3", "d_4")
    val sig = lp.significant(0.2)
    assert(sig.size == 2)
  }

  test("phone column learns fixed-length groups") {
    val lp = learn("937-587-3389", "419-996-7110", "440-993-8351")
    val p  = lp.patterns.head._1
    assert(p.matches("111-222-3333"))
    assert(!p.matches("11-222-3333"))
    assert(!p.matches("111-222-333"))
  }

  test("significant patterns are sorted by coverage") {
    val lp = learn("1", "2", "3", "ab", "cd")
    assert(lp.patterns.map(_._2) == lp.patterns.map(_._2).sorted.reverse)
  }

  test("smallestUnit finds the repeating unit") {
    val toks = Vector[Tok](Lit("A"), Cls(Digit, Some(1)), Lit("A"), Cls(Digit, Some(1)))
    val (unit, reps) = PatternLearner.smallestUnit(toks)
    assert(reps == 2 && unit.size == 2)
  }

  test("smallestUnit returns whole sequence when aperiodic") {
    val toks = Vector[Tok](Lit("A"), Cls(Digit, Some(1)), Lit("B"))
    val (unit, reps) = PatternLearner.smallestUnit(toks)
    assert(reps == 1 && unit == toks)
  }

  test("unifyTok widens literals of the same class") {
    val u = PatternLearner.unifyTok(Lit("CAT"), Lit("DOG"))
    assert(u.contains(Cls(Upper, Some(3))))
  }

  test("unifyTok on incompatible tokens fails") {
    assert(PatternLearner.unifyTok(Lit("-"), Lit("_")).isEmpty)
    assert(PatternLearner.unifyTok(MaskTok("city"), MaskTok("country")).isEmpty)
    assert(PatternLearner.unifyTok(Lit("-"), Cls(Digit, Some(1))).isEmpty)
  }

  test("unifyTok merges class lengths") {
    assert(PatternLearner.unifyTok(Cls(Digit, Some(2)), Cls(Digit, Some(3))).contains(Cls(Digit, None)))
    assert(PatternLearner.unifyTok(Cls(Digit, Some(2)), Cls(Digit, Some(2))).contains(Cls(Digit, Some(2))))
  }
}
