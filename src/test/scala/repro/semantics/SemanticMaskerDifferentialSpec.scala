package repro.semantics

import org.scalatest.funsuite.AnyFunSuite
import repro.core.pattern.Masks
import scala.util.Random

/** A row-by-row `SemanticMasker.maskColumn`: it computes grams, exact hits,
  * visual hits and fuzzy hits for every row, repeated values included, and
  * counts type support and the (form, case) vote over the rows' hits. The
  * masker is checked against it.
  */
object SemanticMaskerReference {

  private final case class Gram(start: Int, end: Int, surface: String)
  private final case class Hit(start: Int, end: Int, surface: String,
                               entity: Entity, formName: String, dist: Int)

  private val AlphaToken = "[A-Za-z](?:[A-Za-z.]*[A-Za-z.])?".r
  private val AlphanumericRun = "[A-Za-z0-9]+".r

  private def grams(v: String): Vector[Gram] = {
    val toks = AlphaToken.findAllMatchIn(v).map(m => Gram(m.start, m.end, m.matched)).toVector
    val out  = Vector.newBuilder[Gram]
    for (i <- toks.indices; len <- 1 to 3; if i + len <= toks.length) {
      val first = toks(i); val last = toks(i + len - 1)
      val joinedBySpaces = (i until i + len - 1).forall { k =>
        toks(k + 1).start == toks(k).end + 1 && v(toks(k).end) == ' '
      }
      if (len == 1 || joinedBySpaces)
        out += Gram(first.start, last.end, v.substring(first.start, last.end))
    }
    out.result()
  }

  private def visualHits(v: String, elected: Set[String]): Vector[Hit] = {
    val runs = AlphanumericRun.findAllMatchIn(v).toVector
      .filter(m => m.matched.exists(_.isLetter) &&
                   m.matched.exists(c => SemanticKB.visualInv.contains(c)))
    runs.flatMap { m =>
      val run = m.matched
      (run.length to 2 by -1).iterator.flatMap { len =>
        val prefix = run.take(len)
        val mapped = prefix.count(c => SemanticKB.visualInv.contains(c))
        if (mapped == 0 || mapped > 2) None
        else SemanticKB.index.getOrElse(SemanticKB.normalize(SemanticKB.devisualize(prefix)), Vector.empty)
          .collectFirst { case (en, fn) if elected.contains(en.semType) =>
            Hit(m.start, m.start + len, prefix, en, fn, mapped)
          }
      }.take(1).toVector
    }
  }

  private def exactHits(gs: Vector[Gram]): Vector[Hit] =
    gs.flatMap { g =>
      SemanticKB.index.getOrElse(SemanticKB.normalize(g.surface), Vector.empty)
        .map { case (en, fn) => Hit(g.start, g.end, g.surface, en, fn, 0) }
    }

  private def caseShape(s: String): String = {
    val letters = s.filter(_.isLetter)
    if (letters.isEmpty) "title"
    else if (letters.forall(_.isUpper)) "upper"
    else if (letters.forall(_.isLower)) "lower"
    else if (s.head.isUpper) "title"
    else "mixed"
  }

  private def applyCase(s: String, shape: String): String = shape match {
    case "upper" => s.toUpperCase
    case "lower" => s.toLowerCase
    case _       => s
  }

  def maskColumn(values: Vector[String]): Vector[MaskedValue] = {
    if (values.isEmpty) return Vector.empty
    val gramsOf = values.map(grams)
    val exact   = gramsOf.map(exactHits)

    val nonEmpty = math.max(1, values.count(_.nonEmpty))
    val elected: Set[String] = exact.flatMap(_.map(_.entity.semType)).distinct.filter { t =>
      val support = exact.count(_.exists(_.entity.semType == t))
      support >= 2 && support.toDouble / nonEmpty >= SemanticMasker.TypeElectionThreshold
    }.toSet
    if (elected.isEmpty) return values.map(v => MaskedValue(v, Vector.empty))

    val style: Map[String, (String, String)] = elected.iterator.map { t =>
      val hs = exact.flatten.filter(_.entity.semType == t)
      val (form, shape) = hs.map(h => (h.formName, caseShape(h.surface)))
        .groupBy(identity).view.mapValues(_.size).toVector
        .sortBy { case (k, c) => (-c, k.toString) }.head._1
      t -> (form, shape)
    }.toMap

    values.zipWithIndex.map { case (v, i) =>
      val kept = exact(i).filter(h => elected.contains(h.entity.semType))
      val visual = visualHits(v, elected).filterNot(h =>
        kept.exists(k => h.start < k.end && k.start < h.end))
      val fuzzy = gramsOf(i).flatMap { g =>
        val overlaps = (kept ++ visual).exists(h => g.start < h.end && h.start < g.end)
        if (overlaps) None
        else {
          val hs = elected.iterator.flatMap { t =>
            SemanticKB.fuzzy(g.surface, t).map { case (en, fn, d) =>
              Hit(g.start, g.end, g.surface, en, fn, d)
            }
          }.toVector
          if (hs.isEmpty) None
          else Some(hs.minBy(h => (h.dist, -(h.end - h.start))))
        }
      } ++ visual
      val chosen = (kept ++ fuzzy)
        .sortBy(h => (h.dist, -(h.end - h.start), h.start))
        .foldLeft(Vector.empty[Hit]) { (acc, h) =>
          if (acc.exists(a => h.start < a.end && a.start < h.end)) acc else acc :+ h
        }
        .sortBy(_.start)

      if (chosen.isEmpty) MaskedValue(v, Vector.empty)
      else {
        val sb   = new StringBuilder
        val occs = Vector.newBuilder[MaskOcc]
        var pos  = 0
        for (h <- chosen) {
          sb.append(v.substring(pos, h.start))
          sb.append(Masks.charFor(h.entity.semType))
          val (form, shape) = style(h.entity.semType)
          val rendered = applyCase(h.entity.form(form).getOrElse(h.entity.canonical), shape)
          occs += MaskOcc(h.entity.semType, h.surface, rendered, fuzzy = h.dist > 0)
          pos = h.end
        }
        sb.append(v.substring(pos))
        MaskedValue(sb.toString, occs.result())
      }
    }
  }
}

class SemanticMaskerDifferentialSpec extends AnyFunSuite {

  private def same(values: Vector[String]): Vector[MaskedValue] = {
    val got = SemanticMasker.maskColumn(values)
    assert(got == SemanticMaskerReference.maskColumn(values), s"column $values")
    got
  }

  private val types: Vector[String] = SemanticKB.entities.keys.toVector.sorted

  /** Every surface of the given semantic types. */
  private def surfacesOf(ts: Seq[String]): Vector[String] =
    ts.toVector.flatMap(t => SemanticKB.entities(t).flatMap(_.forms.map(_._2)))

  /** A surface with one adjacent swap or one replaced letter. */
  private def misspelled(s: String, rnd: Random): String = {
    val i = rnd.nextInt(math.max(1, s.length - 1))
    if (s.length < 2) s
    else if (rnd.nextBoolean()) s.take(i) + s(i + 1) + s(i) + s.drop(i + 2)
    else s.take(i) + ('a' + rnd.nextInt(26)).toChar + s.drop(i + 1)
  }

  /** A surface with up to two letters swapped for look-alike digits. */
  private def visualTypo(s: String, rnd: Random): String = {
    val look = Map('o' -> '0', 'l' -> '1', 'e' -> '3', 'a' -> '4', 't' -> '7', 's' -> '5')
    val at = s.indices.filter(i => look.contains(s(i).toLower))
    rnd.shuffle(at).take(1 + rnd.nextInt(2)).foldLeft(s)((acc, i) => acc.updated(i, look(s(i).toLower)))
  }

  private def cased(s: String, rnd: Random): String = rnd.nextInt(4) match {
    case 0 => s.toUpperCase
    case 1 => s.toLowerCase
    case _ => s
  }

  /** A value: an entity surface (as is, re-cased, misspelled or visually
    * typo'd) with an optional affix, a plain token, or empty.
    */
  private def value(surfaces: Vector[String], rnd: Random): String = rnd.nextInt(10) match {
    case 0 => ""
    case 1 => Vector("x9", "Qual-12", "abc", "2021", "Foo Bar")(rnd.nextInt(5))
    case k =>
      val s0 = surfaces(rnd.nextInt(surfaces.size))
      val s = k match {
        case 2 | 3 => misspelled(s0, rnd)
        case 4     => visualTypo(s0, rnd)
        case _     => cased(s0, rnd)
      }
      rnd.nextInt(4) match {
        case 0 => s"$s-${rnd.nextInt(100)}"
        case 1 => s"${rnd.nextInt(10)} $s"
        case _ => s
      }
  }

  test("maskColumn equals the row-by-row masker on random columns with heavy repeats") {
    val rnd = new Random(20261019)
    var columns, repeating, elected, fuzzy, visual = 0
    for (_ <- 0 until 1500) {
      val surfaces = surfacesOf(Vector.fill(1 + rnd.nextInt(2))(types(rnd.nextInt(types.size))))
      val pool = Vector.fill(1 + rnd.nextInt(10))(value(surfaces, rnd))
      val col  = Vector.fill(1 + rnd.nextInt(30))(pool(rnd.nextInt(pool.size)))
      val got  = same(col)
      columns += 1
      if (col.distinct.size < col.size) repeating += 1
      if (got.exists(_.isMasked)) elected += 1
      val occs = got.flatMap(_.occs)
      if (occs.exists(o => o.fuzzy && !o.original.exists(_.isDigit))) fuzzy += 1
      if (occs.exists(o => o.fuzzy && o.original.exists(_.isDigit))) visual += 1
    }
    info(s"$columns columns: $repeating repeat, $elected elect, $fuzzy fuzzy, $visual visual")
    assert(repeating >= 1200, s"$repeating of $columns columns repeat a value")
    assert(elected >= 900, s"$elected columns elect a type")
    assert(fuzzy >= 300, s"$fuzzy columns hold a fuzzy hit")
    assert(visual >= 200, s"$visual columns hold a visual-typo hit")
  }

  test("a type supported by one value on exactly two rows is elected") {
    val col = Vector("Boston", "x1", "Boston", "x2", "x3", "")
    val got = same(col)
    assert(got(0).masked == Masks.charFor("city").toString && got(2) == got(0))
    assert(!same(Vector("Boston", "x1", "x2", "x3", "")).exists(_.isMasked))
  }

  test("a tied (form, case) vote counts rows and breaks the tie by key") {
    // rows: code2/upper 2, code3/upper 2; distinct values: code2 1, code3 2
    val tie = same(Vector("US", "US", "GBR", "FRA"))
    assert(tie.map(_.occs.head.suggestion) == Vector("US", "US", "UK", "FR"))
    // rows: lower 3, upper 2; distinct values: lower 1, upper 2
    val rows = same(Vector("boston", "boston", "boston", "MIAMI", "DENVER"))
    assert(rows.map(_.occs.head.suggestion) == Vector("boston", "boston", "boston", "miami", "denver"))
  }

  test("empty values count toward no type and mask to themselves") {
    val got = same(Vector("", "Paris", "", "Paris", "Lodnon", ""))
    assert(got(0) == MaskedValue("", Vector.empty))
    assert(got(4).occs.map(o => (o.suggestion, o.fuzzy)) == Vector(("London", true)))
  }
}
