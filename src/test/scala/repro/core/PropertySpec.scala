package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.core.pattern._
import repro.core.repair.{Dag, EditDp}

/** Property-based invariants of the pattern/repair substrate (raw
  * ScalaCheck — scalatestplus is not on the offline classpath).
  */
class PropertySpec extends AnyFunSuite {

  private def checkProp(p: Prop, n: Int = 80): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(n), p)
    assert(res.passed, res.status.toString)
  }

  private val country = Masks.charFor("country")

  private val simpleString: Gen[String] =
    Gen.chooseNum(0, 10).flatMap(n =>
      Gen.listOfN(n, Gen.oneOf(Gen.alphaNumChar, Gen.oneOf('-', '_', '.', ':', ' ', country))).map(_.mkString))

  private val patterns: Gen[Pattern] = Gen.oneOf(
    Pattern(Lit("QUAL"), Lit("-"), Cls(CharClassT.Digit, Some(2))),
    Pattern(Cls(CharClassT.Upper, Some(2)), Lit("-"), Cls(CharClassT.Digit, None)),
    Pattern(Cls(CharClassT.Digit, None)),
    Pattern(Group(Vector(Lit("A"), Cls(CharClassT.Digit, Some(1)), Lit(".")))),
    Pattern(Disj(Vector("CAT", "PRO")), Lit("-"), Cls(CharClassT.Digit, Some(1))),
    Pattern(Lit("v"), Cls(CharClassT.Digit, None), Lit("."), Cls(CharClassT.Digit, None)),
    Pattern(Group(Vector(Lit("a"), Group(Vector(Cls(CharClassT.Digit, Some(1))))))),
    Pattern(Group(Vector(Cls(CharClassT.Upper, None), Lit("-")))),
    Pattern(Group(Vector(Lit("x"), Cls(CharClassT.Digit, Some(1)))), Lit(".")),
    Pattern(MaskTok("country"), Lit("-"), Cls(CharClassT.Digit, None)),
    // adjacent one-or-more classes: a value has several alignments
    Pattern(Cls(CharClassT.Lower, None), Cls(CharClassT.AlphaNum, None)),
  )

  /** A random member of `p`'s language. */
  private def member(p: Pattern): Gen[String] = {
    def tok(t: Tok): Gen[String] = t match {
      case Lit(s)       => Gen.const(s)
      case Cls(cc, len) => len.fold(Gen.chooseNum(1, 3))(Gen.const)
                             .flatMap(k => Gen.listOfN(k, Gen.oneOf(cc.sample)).map(_.mkString))
      case Disj(alts)   => Gen.oneOf(alts)
      case m: MaskTok   => Gen.const(m.maskChar.toString)
      case Group(ts)    => Gen.chooseNum(1, 3).flatMap(k => Gen.listOfN(k, seq(ts)).map(_.mkString))
    }
    def seq(ts: Vector[Tok]): Gen[String] =
      ts.foldLeft(Gen.const(""))((acc, t) => for (a <- acc; b <- tok(t)) yield a + b)
    seq(p.toks)
  }

  /** Resolve abstract units with the first class/alternative candidate. */
  private def naive(r: repro.core.repair.AbstractRepair): String =
    r.emitted.map {
      case repro.core.repair.EChar(c)        => c.toString
      case repro.core.repair.ECls(cc, _, _) => cc.sample.head.toString
      case repro.core.repair.EMask(t, _, _)  => Masks.charFor(t).toString
      case repro.core.repair.EDisj(_, _, as) => as.head
    }.mkString

  test("minimal repairs always land in the pattern language") {
    checkProp(Prop.forAll(patterns, simpleString) { (p, s) =>
      EditDp.minimalRepairs(Dag.build(p, s.length), s).headOption.forall(r => p.matches(naive(r)))
    })
  }

  test("values already in the language repair at cost zero") {
    checkProp(Prop.forAll(patterns, simpleString) { (p, s) =>
      !p.matches(s) || EditDp.minimalRepairs(Dag.build(p, s.length), s).headOption.exists(_.cost == 0)
    })
  }

  test("alignment succeeds exactly on values in the pattern language") {
    val g = for (p <- patterns; s <- Gen.oneOf(simpleString, member(p))) yield (p, s)
    checkProp(Prop.forAll(g) { case (p, s) =>
      val dag = Dag.build(p, s.length)
      val a   = EditDp.align(dag, s)
      // and it is the path of the zero-cost repair the edit DP returns first
      a.isDefined == p.matches(s) &&
        a.map(_.toVector) == EditDp.minimalRepairs(dag, s).headOption.filter(_.cost == 0).map(_.steps.map(_.edge))
    }, n = 500)
  }

  test("repair cost is bounded by delete-all + insert-result") {
    checkProp(Prop.forAll(patterns, simpleString) { (p, s) =>
      EditDp.minimalRepairs(Dag.build(p, s.length), s).headOption.forall { r =>
        r.cost <= s.length + naive(r).length
      }
    })
  }

  test("repair cost never exceeds Levenshtein to the resolved repair") {
    checkProp(Prop.forAll(patterns, simpleString) { (p, s) =>
      EditDp.minimalRepairs(Dag.build(p, s.length), s).headOption.forall { r =>
        r.cost <= Strings.lev(s, naive(r))
      }
    })
  }

  test("pattern matching is anchored like its compiled regex") {
    checkProp(Prop.forAll(patterns, simpleString) { (p, s) =>
      p.matches(s) == s.matches(p.regex)
    })
  }

  test("learner always covers every input value") {
    val colGen = Gen.chooseNum(1, 12).flatMap(n => Gen.listOfN(n, simpleString.suchThat(_.nonEmpty)))
    checkProp(Prop.forAll(colGen) { vs =>
      val lp = PatternLearner.learn(vs.toVector)
      vs.forall(v => lp.patterns.exists(_._1.matches(v)))
    }, n = 50)
  }

  test("levenshtein is a metric on samples") {
    checkProp(Prop.forAll(simpleString, simpleString, simpleString) { (a, b, c) =>
      Strings.lev(a, b) == Strings.lev(b, a) &&
        Strings.lev(a, a) == 0 &&
        Strings.lev(a, c) <= Strings.lev(a, b) + Strings.lev(b, c)
    })
  }

  test("isNumeric is exactly toDouble's success after dropping commas") {
    val fragments = Gen.oneOf("0", "7", "42", "1,234", ".", ",", "+", "-", "e", "E", "e-3", "x", "0x",
      "p", "p2", "a", "f", "F", "d", "D", "NaN", "Infinity", "nan", "inf", " ", "\t", "٣", "３", "Ⅻ", "#", "abc")
    val s = Gen.chooseNum(0, 5).flatMap(n => Gen.listOfN(n, fragments).map(_.mkString))
    checkProp(Prop.forAll(s) { v =>
      Strings.isNumeric(v) == scala.util.Try(v.replace(",", "").toDouble).isSuccess
    }, n = 5000)
  }

  /** A generated Wikipedia or Synthetic table under the default config or
    * one of the four Table-9 ablations.
    */
  private val cleaned: Gen[(String, Table, DataVinci.Config)] = for {
    table <- Gen.oneOf(
      Gen.chooseNum(0L, 599L).map(id => s"wikipedia $id" -> repro.benchgen.BenchGen.wikipedia(id).dirtyTable),
      Gen.chooseNum(0L, 119L).map(id => s"synthetic $id" -> repro.benchgen.BenchGen.synthetic(id).dirtyTable))
    cfg <- Gen.oneOf(DataVinci.Config(), DataVinci.Config(semantic = false),
      DataVinci.Config(limitedSemanticConcretization = true), DataVinci.Config(learnedConcretization = false),
      DataVinci.Config(editDistanceRanking = true))
  } yield (table._1, table._2, cfg)

  test("no suggestion or top-5 candidate of cleanTable holds a mask code point") {
    checkProp(Prop.forAll(cleaned) { case (name, table, cfg) =>
      val out = for ((c, res) <- DataVinci.cleanTable(table, cfg); cell <- res.repairs.values;
                     s <- cell.suggestion.toVector ++ cell.candidates.map(_.repaired)) yield (c, cell.row, s)
      val masked = out.filter(_._3.exists(Masks.isMask))
      masked.isEmpty :| s"$name $cfg: $masked"
    }, n = 100)
  }

  test("two cleanTable calls return equal results") {
    checkProp(Prop.forAll(cleaned) { case (name, table, cfg) =>
      (DataVinci.cleanTable(table, cfg) == DataVinci.cleanTable(table, cfg)) :| s"$name $cfg"
    }, n = 100)
  }

  test("corruption never silently returns the same value") {
    val g = for {
      s    <- simpleString.suchThat(_.nonEmpty)
      seed <- Gen.chooseNum(0L, 10000L)
      n    <- Gen.chooseNum(1, 4)
    } yield (s, seed, n)
    checkProp(Prop.forAll(g) { case (s, seed, n) =>
      repro.benchgen.Corruptions.corrupt(s, new scala.util.Random(seed), n)
        .forall(_.dirty != s)
    })
  }
}
