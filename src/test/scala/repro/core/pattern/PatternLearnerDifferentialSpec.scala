package repro.core.pattern

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import Tokenizer._

/** A readable `PatternLearner`: tokenizes every value once for its
  * signature and again for its cluster's pattern, recounts every pattern's
  * coverage over all rows in each merge round and once more at the end, and
  * spells out token unification case by case. The learner is checked
  * against it.
  */
object PatternLearnerReference {

  /** Patterns with their coverage over `values`, as `learn` returns them. */
  def learn(values: Seq[String], k: Int): Vector[(Pattern, Double)] = {
    val vs = values.toVector
    if (vs.isEmpty) return Vector.empty
    capPatterns(uncapped(vs), vs, k).distinct
      .map(p => p -> coverage(p, vs))
      .sortBy { case (p, c) => (-c, p.pretty) }
  }

  /** The patterns before the cap on `k`. */
  def uncapped(vs: Vector[String]): Vector[Pattern] =
    mergeRepetitions(vs.distinct.groupBy(signature).values.toVector.map(clusterPattern))

  private def coverage(p: Pattern, vs: Vector[String]): Double =
    vs.count(p.matches).toDouble / vs.size

  private def clusterPattern(cluster: Vector[String]): Pattern = {
    val runss = cluster.map(runs)
    Pattern((0 until runss.head.length).toVector.map(i => refine(runss.map(_(i)))))
  }

  private def refine(col: Vector[Run]): Tok = {
    val texts    = col.map(_.text)
    val distinct = texts.distinct
    col.head match {
      case MaskRun(t)  => MaskTok(t)
      case PunctRun(t) => Lit(t)
      case DigitRun(_) => Cls(CharClassT.Digit, fixedLen(texts))
      case SpaceRun(_) =>
        if (distinct.size == 1) Lit(distinct.head) else Cls(CharClassT.Space, fixedLen(texts))
      case AlphaRun(_, _) =>
        if (distinct.size == 1) Lit(distinct.head)
        else if (distinct.size <= 4 && distinct.size < col.size &&
                 distinct.forall(t => texts.count(_ == t) >= 2))
          Disj(distinct.sorted)
        else {
          val shapes = col.collect { case AlphaRun(_, s) => s }.distinct
          val cls =
            if (shapes == Vector(AllLower)) CharClassT.Lower
            else if (shapes == Vector(AllUpper)) CharClassT.Upper
            else CharClassT.Alpha
          Cls(cls, fixedLen(texts))
        }
    }
  }

  private def fixedLen(texts: Vector[String]): Option[Int] = {
    val lens = texts.map(_.length).distinct
    if (lens.size == 1) Some(lens.head) else None
  }

  private def compatTok(a: Tok, b: Tok): Boolean = (a, b) match {
    case (x, y) if x == y         => true
    case (Cls(c1, _), Cls(c2, _)) => c1 == c2
    case _                        => false
  }

  private def smallestUnit(toks: Vector[Tok]): (Vector[Tok], Int) = {
    val n = toks.length
    (1 to n / 2).find { p =>
      n % p == 0 && (1 until n / p).forall { r =>
        toks.slice(r * p, (r + 1) * p).zip(toks.take(p)).forall { case (a, b) => compatTok(a, b) }
      }
    } match {
      case Some(p) =>
        val unit = (0 until n / p).map(r => toks.slice(r * p, (r + 1) * p))
          .reduce((a, b) => a.zip(b).map { case (x, y) => unifyTok(x, y).get })
        (unit, n / p)
      case None => (toks, 1)
    }
  }

  private def mergeRepetitions(patterns: Vector[Pattern]): Vector[Pattern] = {
    val analyzed = patterns.map { p => val (u, r) = smallestUnit(p.toks); (u, r, p) }
    val out = Vector.newBuilder[Pattern]
    val used = Array.fill(analyzed.length)(false)
    for (i <- analyzed.indices if !used(i)) {
      val (ui, _, pi) = analyzed(i)
      val mates = (i + 1 until analyzed.length).filter { j =>
        !used(j) && {
          val uj = analyzed(j)._1
          ui.length == uj.length && ui.zip(uj).forall { case (a, b) => compatTok(a, b) }
        }
      }
      val group = i +: mates
      if (group.exists(analyzed(_)._2 >= 2)) {
        val unit = group.map(analyzed(_)._1).reduce((a, b) =>
          a.zip(b).map { case (x, y) => unifyTok(x, y).get })
        out += Pattern(Vector(Group(unit)))
        group.foreach(used(_) = true)
      } else { out += pi; used(i) = true }
    }
    out.result().distinct
  }

  def unifyTok(a: Tok, b: Tok): Option[Tok] = (a, b) match {
    case (x, y) if x == y => Some(x)
    case (MaskTok(x), MaskTok(y)) => if (x == y) Some(a) else None
    case (Lit(x), Lit(y)) =>
      classOfText(x).flatMap(cx => classOfText(y).map { cy =>
        Cls(CharClassT.lub(cx, cy), if (x.length == y.length) Some(x.length) else None)
      })
    case (Cls(c1, l1), Cls(c2, l2)) =>
      Some(Cls(CharClassT.lub(c1, c2), if (l1 == l2) l1 else None))
    case (Cls(c, l), Lit(s)) =>
      classOfText(s).map(cs => Cls(CharClassT.lub(c, cs), if (l.contains(s.length)) l else None))
    case (l: Lit, c: Cls) => unifyTok(c, l)
    case (Disj(xs), Lit(s))  => unifyTok(Cls(disjClass(xs), disjLen(xs)), Lit(s))
    case (Lit(s), Disj(xs))  => unifyTok(Disj(xs), Lit(s))
    case (Disj(xs), Cls(c, l)) => unifyTok(Cls(disjClass(xs), disjLen(xs)), Cls(c, l))
    case (Cls(c, l), Disj(xs)) => unifyTok(Disj(xs), Cls(c, l))
    case (Disj(xs), Disj(ys)) =>
      unifyTok(Cls(disjClass(xs), disjLen(xs)), Cls(disjClass(ys), disjLen(ys)))
    case _ => None
  }

  private def disjClass(alts: Vector[String]): CharClassT =
    alts.flatMap(classOfText).reduceOption(CharClassT.lub).getOrElse(CharClassT.AlphaNumSpace)

  private def disjLen(alts: Vector[String]): Option[Int] = fixedLen(alts)

  private def classOfText(s: String): Option[CharClassT] = {
    val cs = s.map(CharClassT.of)
    if (cs.exists(_.isEmpty)) None else Some(cs.flatten.reduce(CharClassT.lub))
  }

  private def capPatterns(patterns: Vector[Pattern], vs: Vector[String], k: Int): Vector[Pattern] = {
    var ps = patterns.distinct
    var progress = true
    while (ps.length > k && progress) {
      val byCov = ps.sortBy(coverage(_, vs))
      val pair = (for {
        i <- byCov.indices.iterator
        j <- (i + 1 until byCov.length).iterator
        u <- unifyPattern(byCov(i), byCov(j)).iterator
      } yield (byCov(i), byCov(j), u)).nextOption()
      progress = pair.isDefined
      pair.foreach { case (a, b, u) => ps = (ps.filterNot(p => p == a || p == b) :+ u).distinct }
    }
    ps
  }

  private def unifyPattern(a: Pattern, b: Pattern): Option[Pattern] =
    if (a.toks.length != b.toks.length) None
    else {
      val us = a.toks.zip(b.toks).map { case (x, y) => unifyTok(x, y) }
      if (us.forall(_.isDefined)) Some(Pattern(us.flatten)) else None
    }
}

/** Random columns for the learner: values of a few shapes built from digit,
  * cased-letter, space, punctuation, `é` and two mask-symbol segments, with
  * small repeated alternative sets (so disjunctions form), repeated units
  * (so groups form), stray values and repeated rows.
  */
object RandomColumns {

  private val Masked = Vector(Masks.charFor("city"), Masks.charFor("country")).map(_.toString)
  /** Alternative sets, each of one case shape so that they share a cluster. */
  private val Alternatives = Vector(
    Vector("CAT", "PRO", "DOG", "AB"), Vector("ab", "xyz", "é"), Vector("Boston", "Paris", "Rome"))

  private def word(rng: Random, letters: String, len: Int): String =
    Vector.fill(len)(letters(rng.nextInt(letters.length))).mkString

  /** A segment kind: a function from the RNG to one segment's text. */
  private def kind(rng: Random): Random => String = {
    val len = 1 + rng.nextInt(4)
    val fixed = rng.nextBoolean()
    def l(r: Random) = if (fixed) len else 1 + r.nextInt(4)
    rng.nextInt(14) match {
      case 0 => r => word(r, "0123456789", l(r))
      case 1 => r => word(r, "01", l(r))
      case 2 => r => word(r, "abcxyz", l(r))
      case 3 => r => word(r, "ABCXYZ", l(r))
      case 4 => r => word(r, "ABC", 1) + word(r, "abc", l(r))
      case 5 => r => word(r, "aBéc", l(r))
      case 6 | 11 | 12 | 13 =>
        val set  = Alternatives(rng.nextInt(Alternatives.length))
        val alts = rng.shuffle(set).take(2 + rng.nextInt(set.length - 1))
        r => alts(r.nextInt(alts.length))
      case 7 => r => if (fixed || r.nextBoolean()) " " else "  "
      case 8 => val p = "-_.:/#"(rng.nextInt(6)).toString; _ => p
      case 9 => val m = Masked(rng.nextInt(2)); _ => m
      case 10 => r => Masked(r.nextInt(2))
    }
  }

  /** One column of 1–40 rows. */
  def column(rng: Random): Vector[String] = {
    val shapes = Vector.fill(1 + rng.nextInt(4)) {
      val unit = Vector.fill(1 + rng.nextInt(4))(kind(rng))
      val maxReps = if (rng.nextInt(4) == 0) 3 else 1
      (r: Random) => (0 until 1 + r.nextInt(maxReps)).map(_ => unit.map(_(r)).mkString).mkString
    }
    val stray = (r: Random) => Vector.fill(1 + r.nextInt(5))(kind(r)(r)).mkString
    val pool = Vector.fill(1 + rng.nextInt(25)) {
      if (rng.nextInt(8) == 0) stray(rng) else shapes(rng.nextInt(shapes.length))(rng)
    }
    Vector.fill(1 + rng.nextInt(40))(pool(rng.nextInt(pool.length)))
  }
}

class PatternLearnerDifferentialSpec extends AnyFunSuite {
  import CharClassT._

  test("learn equals the reference on random columns, with k from 1 to 8") {
    val rng = new Random(90417L)
    var capped, disj, group = 0
    for (n <- 0 until 4000) {
      val vs = RandomColumns.column(rng)
      val k  = 1 + n % 8
      val uncapped = PatternLearnerReference.uncapped(vs)
      if (uncapped.distinct.length > k) capped += 1
      if (uncapped.exists(_.toks.exists(_.isInstanceOf[Disj]))) disj += 1
      if (uncapped.exists(_.toks.exists(_.isInstanceOf[Group]))) group += 1
      assert(PatternLearner.learn(vs, k).patterns == PatternLearnerReference.learn(vs, k),
        s"k = $k, values = $vs")
    }
    assert(capped >= 1000 && disj >= 100 && group >= 200, s"capped = $capped, disj = $disj, group = $group")
  }

  test("unifyTok equals the reference on every ordered pair of tokens") {
    val toks = Vector[Tok](
      Lit("CAT"), Lit("ab"), Lit("Ab"), Lit("12"), Lit("01"), Lit("a b"), Lit("-"), Lit("é"), Lit("aé"),
      Cls(Digit, Some(2)), Cls(Digit, Some(3)), Cls(Digit, None), Cls(Upper, Some(3)), Cls(Lower, None),
      Cls(Space, Some(1)), Cls(Bin01, Some(2)),
      Disj(Vector("CAT", "PRO")), Disj(Vector("ab", "Xyz")), Disj(Vector("ab", "é")),
      MaskTok("city"), MaskTok("country"),
      Group(Vector(Lit("A"), Cls(Digit, Some(1)))))
    for (a <- toks; b <- toks)
      assert(PatternLearner.unifyTok(a, b) == PatternLearnerReference.unifyTok(a, b), s"$a, $b")
  }
}
