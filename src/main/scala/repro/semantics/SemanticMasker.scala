package repro.semantics

import repro.core.Distinct
import repro.core.pattern.Masks

/** One masked occurrence inside a value: the surface that was replaced, and
  * the (possibly repaired) replacement the "LLM" suggests for
  * re-concretization. `fuzzy` is true when the surface did not exactly match
  * any dictionary form (i.e. the LLM repaired a misspelling) — a detection
  * signal in its own right, since such values mask into the pattern
  * language and would otherwise go unflagged.
  */
final case class MaskOcc(semType: String, original: String, suggestion: String,
                         fuzzy: Boolean = false)

/** A value after semantic abstraction: mask symbols substituted in place,
  * occurrence metadata in left-to-right order.
  */
final case class MaskedValue(masked: String, occs: Vector[MaskOcc]) {
  def isMasked: Boolean = occs.nonEmpty
}

/** The LLM simulator for semantic abstraction (§3.2).
  *
  * Mirrors how the paper prompts GPT-3.5 with a whole column at once:
  *  1. find exact dictionary matches per value (word grams up to 3 tokens);
  *  2. *elect* the semantic types for the column — a type is masked only
  *     when enough values exhibit it (contextual masking: "May" stays
  *     unmasked in a month-free column);
  *  3. re-scan with fuzzy matching against elected types only, which is what
  *     repairs misspelled semantic substrings (`Birminxham → Birmingham`);
  *  4. render each suggestion in the column's dominant form and case style
  *     (`usa → US` when the column majority uses upper-case code2).
  */
object SemanticMasker {

  /** Fraction of values that must exhibit a type for it to be elected. */
  val TypeElectionThreshold = 0.3

  private final case class Gram(start: Int, end: Int, surface: String)
  private final case class Hit(start: Int, end: Int, surface: String,
                               entity: Entity, formName: String, dist: Int)

  /** Alpha tokens (periods allowed inside, e.g. "u.k."). */
  private val AlphaToken = "[A-Za-z](?:[A-Za-z.]*[A-Za-z.])?".r

  private val AlphanumericRun = "[A-Za-z0-9]+".r

  /** Word grams (up to 3 alpha tokens joined by single spaces/periods). */
  private def grams(v: String): Vector[Gram] = {
    val toks  = AlphaToken.findAllMatchIn(v).map(m => Gram(m.start, m.end, m.matched)).toVector
    val out   = Vector.newBuilder[Gram]
    for (i <- toks.indices; len <- 1 to 3; if i + len <= toks.length) {
      val first = toks(i); val last = toks(i + len - 1)
      // multi-token grams must be joined by single spaces
      val joinedBySpaces = (i until i + len - 1).forall { k =>
        toks(k + 1).start == toks(k).end + 1 && v(toks(k).end) == ' '
      }
      if (len == 1 || joinedBySpaces)
        out += Gram(first.start, last.end, v.substring(first.start, last.end))
    }
    out.result()
  }

  /** Entity hits through the visual-typo map: for each alphanumeric run
    * containing both a letter and a look-alike digit, try devisualized
    * prefixes (longest first) against the dictionary — `H4rry445` resolves
    * the prefix `H4rry` to the entity `Harry` with one mapped character.
    */
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
    case _       => s // dictionary surfaces are already title-cased
  }

  /** Mask a whole column; deterministic in the input. Each distinct value
    * is masked once; type election and the style vote count rows.
    */
  def maskColumn(values: Vector[String]): Vector[MaskedValue] = {
    if (values.isEmpty) return Vector.empty
    val dict    = Distinct(values)
    val gramsOf = dict.values.map(grams)
    val exact   = gramsOf.map(exactHits)

    // type election over the column's rows
    val nonEmpty = math.max(1, values.count(_.nonEmpty))
    val elected: Set[String] = exact.flatMap(_.map(_.entity.semType)).distinct.filter { t =>
      val support = dict.countRows(d => exact(d).exists(_.entity.semType == t))
      support >= 2 && support.toDouble / nonEmpty >= TypeElectionThreshold
    }.toSet
    if (elected.isEmpty) return values.map(v => MaskedValue(v, Vector.empty))

    // dominant rendering per type: (form, case shape) majority over the rows' exact hits
    val style: Map[String, (String, String)] = elected.iterator.map { t =>
      val votes = for (d <- exact.indices; h <- exact(d) if h.entity.semType == t)
        yield (h.formName, caseShape(h.surface)) -> dict.counts(d)
      t -> votes.groupMapReduce(_._1)(_._2)(_ + _).toVector
        .sortBy { case (k, c) => (-c, k.toString) }.head._1
    }.toMap

    val maskedOf = dict.values.indices.map { i =>
      val v = dict.values(i)
      // keep elected-type exact hits; add visual-typo and fuzzy hits
      val kept = exact(i).filter(h => elected.contains(h.entity.semType))
      val visual = visualHits(v, elected).filterNot(h =>
        kept.exists(k => h.start < k.end && k.start < h.end))
      // a free gram's closest fuzzy hit over the elected types, the first on ties
      val fuzzy = gramsOf(i).flatMap { g =>
        val overlaps = (kept ++ visual).exists(h => g.start < h.end && h.start < g.end)
        if (overlaps) None
        else elected.iterator.flatMap(t => SemanticKB.fuzzy(g.surface, t)).minByOption(_._3)
          .map { case (en, fn, d) => Hit(g.start, g.end, g.surface, en, fn, d) }
      } ++ visual
      // choose non-overlapping hits: exact before fuzzy, longer before shorter
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
    dict.ids.iterator.map(maskedOf).toVector
  }
}
