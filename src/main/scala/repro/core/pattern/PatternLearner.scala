package repro.core.pattern

import repro.core.Distinct
import Tokenizer._

/** FlashProfile-lite (§3.1): learns regex patterns that jointly cover all
  * values of a column, capped at `k` where patterns of equal arity can be
  * unified (so more than `k` can come back), then selects the *significant*
  * subset — patterns individually covering at least a fraction δ of the
  * values.
  *
  * Algorithm, over the input's dictionary (distinct values with their row
  * counts):
  *   1. cluster values by run signature (digit/alpha-shape/space/mask/punct);
  *   2. per cluster, refine each run position to the most specific token that
  *      covers the cluster: literal, small disjunction, or fixed-length /
  *      one-or-more character class;
  *   3. detect repetitions (`unit` repeated r ≥ 2 times becomes `(unit)+`)
  *      and merge clusters that share a unit;
  *   4. while more than `k` patterns remain, unify the two least-covering
  *      compatible patterns token by token (both tokens widen to a class,
  *      whose lub is taken), stopping when nothing is compatible.
  * Each pattern's coverage is counted once, when the pattern is made.
  */
object PatternLearner {

  /** Result of learning: each pattern with its coverage over the input. */
  final case class LearnedPatterns(patterns: Vector[(Pattern, Double)]) {
    /** Patterns individually covering ≥ `delta` of the column. */
    def significant(delta: Double): Vector[(Pattern, Double)] =
      patterns.filter(_._2 >= delta)
  }

  /** Learn patterns over `values` (multiplicities count toward coverage). */
  def learn(values: Seq[String], k: Int = 8): LearnedPatterns = {
    if (values.isEmpty) return LearnedPatterns(Vector.empty)
    val dict = Distinct(values)
    def coverage(p: Pattern): Double =
      dict.countRows(d => p.matches(dict.values(d))).toDouble / dict.ids.length

    val clusters = dict.values.map(runs).groupBy(_.map(sigOf)).values.toVector
    val patterns = mergeRepetitions(clusters.map(clusterPattern)).map(p => p -> coverage(p))
    LearnedPatterns(capPatterns(patterns, k, coverage).sortBy { case (p, c) => (-c, p.pretty) })
  }

  // ---------------------------------------------------------------- step 2

  /** Most specific pattern covering every value (given as its runs) of one
    * signature cluster.
    */
  private def clusterPattern(runss: Vector[Vector[Run]]): Pattern =
    Pattern((0 until runss.head.length).toVector.map(i => refine(runss.map(_(i)))))

  /** Refine one run position across a cluster into a token. */
  private def refine(col: Vector[Run]): Tok = {
    val texts    = col.map(_.text)
    val distinct = texts.distinct
    col.head match {
      case MaskRun(t) => MaskTok(t)
      case PunctRun(t) => Lit(t)
      case DigitRun(_) =>
        Cls(CharClassT.Digit, fixedLen(texts))
      case SpaceRun(_) =>
        if (distinct.size == 1) Lit(distinct.head)
        else Cls(CharClassT.Space, fixedLen(texts))
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

  // ---------------------------------------------------------------- step 3

  /** Strict repetition compatibility: identical tokens, or same-class
    * character classes whose lengths may differ across repetitions. (The
    * generalizing [[unifyTok]] is deliberately NOT used here — it would
    * collapse e.g. `A[0-9]` into `([a-zA-Z0-9])+`.)
    */
  private def compatTok(a: Tok, b: Tok): Boolean = (a, b) match {
    case (x, y) if x == y         => true
    case (Cls(c1, _), Cls(c2, _)) => c1 == c2
    case _                        => false
  }

  /** Smallest repeating unit of a token vector: returns (unit, reps). */
  private[pattern] def smallestUnit(toks: Vector[Tok]): (Vector[Tok], Int) = {
    val n = toks.length
    (1 to n / 2).find { p =>
      n % p == 0 && {
        val unit = toks.take(p)
        (1 until n / p).forall { r =>
          toks.slice(r * p, (r + 1) * p).zip(unit).forall { case (a, b) => compatTok(a, b) }
        }
      }
    } match {
      case Some(p) =>
        // unify across repetitions so e.g. [0-9]{1} and [0-9]{2} widen to +
        val unit = (0 until toks.length / p).map(r => toks.slice(r * p, (r + 1) * p))
          .reduce((a, b) => a.zip(b).map { case (x, y) => unifyTok(x, y).get })
        (unit, toks.length / p)
      case None => (toks, 1)
    }
  }

  /** Merge patterns sharing a repetition unit into a single `(unit)+`. */
  private[pattern] def mergeRepetitions(patterns: Vector[Pattern]): Vector[Pattern] = {
    val analyzed = patterns.map { p => val (u, r) = smallestUnit(p.toks); (u, r, p) }
    // group by unit arity+signature; units unify pairwise
    val out = Vector.newBuilder[Pattern]
    val used = Array.fill(analyzed.length)(false)
    for (i <- analyzed.indices if !used(i)) {
      val (ui, _, pi) = analyzed(i)
      val mates = (i + 1 until analyzed.length).filter { j =>
        !used(j) && {
          val (uj, _, _) = analyzed(j)
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

  // ---------------------------------------------------------------- step 4

  /** Token-wise generalization; `None` when the tokens are incompatible.
    * Unequal tokens unify only when both [[widen]] to a class.
    */
  private[pattern] def unifyTok(a: Tok, b: Tok): Option[Tok] =
    if (a == b) Some(a)
    else for (x <- widen(a); y <- widen(b))
      yield Cls(CharClassT.lub(x.cc, y.cc), if (x.len == y.len) x.len else None)

  /** The class a token widens to: a literal whose chars are all classed
    * keeps its length, a disjunction keeps its alternatives' common length.
    */
  private def widen(t: Tok): Option[Cls] = t match {
    case c: Cls     => Some(c)
    case Lit(s)     => classOfText(s).map(Cls(_, Some(s.length)))
    case Disj(alts) => Some(Cls(disjClass(alts), fixedLen(alts)))
    case _          => None
  }

  private def disjClass(alts: Vector[String]): CharClassT =
    alts.flatMap(classOfText).reduceOption(CharClassT.lub).getOrElse(CharClassT.AlphaNumSpace)

  /** Most specific class covering every char of `s`, if all chars are classed. */
  private def classOfText(s: String): Option[CharClassT] = {
    val cs = s.map(CharClassT.of)
    if (cs.exists(_.isEmpty)) None
    else Some(cs.flatten.reduce(CharClassT.lub))
  }

  /** While more than `k` patterns remain, unify the least-covering pair of
    * equal arity; only the unified pattern's coverage is counted. Patterns of
    * different arities never unify, so more than `k` can remain.
    */
  private def capPatterns(patterns: Vector[(Pattern, Double)], k: Int,
                          coverage: Pattern => Double): Vector[(Pattern, Double)] = {
    var ps = patterns
    var progress = true
    while (ps.length > k && progress) {
      val byCov = ps.sortBy(_._2).map(_._1)
      val pair = (for {
        i <- byCov.indices.iterator
        j <- (i + 1 until byCov.length).iterator
        u <- unifyPattern(byCov(i), byCov(j)).iterator
      } yield (byCov(i), byCov(j), u)).nextOption()
      progress = pair.isDefined
      pair.foreach { case (a, b, u) =>
        val rest = ps.filterNot { case (p, _) => p == a || p == b }
        ps = if (rest.exists(_._1 == u)) rest else rest :+ (u -> coverage(u))
      }
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
