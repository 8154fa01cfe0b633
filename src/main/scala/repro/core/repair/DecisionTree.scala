package repro.core.repair

import repro.core.repair.Predicates.Feature

/** Small decision trees over boolean features predicting string labels — the
  * concretization constraints of §3.4.
  *
  * Following the paper: trees of varying node count and depth are considered,
  * filtered to training accuracy ≥ α (default 0.8), ranked ascending by
  * (nodes, depth), and the first qualifying tree is kept. We realize this
  * with one greedy search: each node splits on the feature (lowest index
  * among ties) whose majority children misclassify fewest examples. The
  * search is grown once, to depth 3 at most, and truncated at depth 0, 1, 2
  * and 3 in turn: depth 0 is the majority leaf, and depth 1 is the stump with
  * the fewest errors, so the first depth whose tree qualifies gives the
  * smallest qualifying tree this search reaches. Truncation is exact because
  * a node's split does not depend on the depth left below it.
  *
  * `learn` is a counting kernel over table rows, in `Feature.bits`' layout:
  * each label is the bitset of its examples' rows, and a node is the bitset
  * of its examples. A split's error comes from popcounts of node ∧ feature ∧
  * label, so each example's row must be distinct. A node's leaf label is its
  * most frequent label (ties by label), and a truncated tree's training
  * accuracy is the sum of its leaves' most frequent label counts over the
  * number of examples.
  *
  * Features are taken by name and read only when a node's labels are mixed
  * and its split is searched: a majority leaf that meets α never evaluates
  * them, and neither does `Leaf.predict`.
  */
object DecisionTree {

  sealed trait DTree {
    def predict(row: Int, feats: => Vector[Feature]): String
    def nodes: Int
    def depth: Int
  }
  final case class Leaf(label: String) extends DTree {
    def predict(row: Int, feats: => Vector[Feature]): String = label
    def nodes: Int = 1
    def depth: Int = 0
  }
  final case class Node(feat: Int, t: DTree, f: DTree) extends DTree {
    def predict(row: Int, feats: => Vector[Feature]): String =
      if (feats(feat)(row)) t.predict(row, feats) else f.predict(row, feats)
    def nodes: Int = 1 + t.nodes + f.nodes
    def depth: Int = 1 + math.max(t.depth, f.depth)
  }

  val DefaultAlpha = 0.8

  private val MaxDepth = 3

  /** Learn a tree over `examples` (rowIdx → label, each row at most once)
    * with accuracy ≥ `alpha`; `None` when no tree up to depth 3 qualifies.
    */
  def learn(feats: => Vector[Feature], examples: Vector[(Int, String)],
            alpha: Double = DefaultAlpha): Option[DTree] =
    if (examples.isEmpty) None
    else {
      val root = new Kernel(feats, examples).root
      (0 to MaxDepth).find(d => root.hits(d).toDouble / examples.size >= alpha).map(root.tree)
    }

  /** Distinct `labels`, most frequent first, ties by label. */
  private[repair] def byFrequency(labels: Vector[String]): Vector[String] =
    labels.groupBy(identity).view.mapValues(_.size).toVector
      .sortBy { case (l, c) => (-c, l) }.map(_._1)

  private def popcount(a: Array[Long]): Int = {
    var c = 0
    var w = 0
    while (w < a.length) { c += java.lang.Long.bitCount(a(w)); w += 1 }
    c
  }

  private def popcountAnd(a: Array[Long], b: Array[Long]): Int = {
    var c = 0
    var w = 0
    while (w < a.length) { c += java.lang.Long.bitCount(a(w) & b(w)); w += 1 }
    c
  }

  private def and(a: Array[Long], b: Array[Long]): Array[Long] = Array.tabulate(a.length)(w => a(w) & b(w))

  private def andNot(a: Array[Long], b: Array[Long]): Array[Long] = Array.tabulate(a.length)(w => a(w) & ~b(w))

  /** Row bitsets of non-empty `examples`. */
  private final class Kernel(feats: => Vector[Feature], examples: Vector[(Int, String)]) {
    private val words  = (examples.iterator.map(_._1).max >>> 6) + 1
    private val labels = examples.map(_._2).distinct.sorted.toArray
    /** Read at the first split search. */
    private lazy val featBits = feats.iterator.map(_.bits).toArray

    /** The rows of each label, and of all examples. */
    private val (labelBits, all): (Array[Array[Long]], Array[Long]) = {
      val id   = labels.zipWithIndex.toMap
      val bits = Array.fill(labels.length)(new Array[Long](words))
      val all  = new Array[Long](words)
      for ((r, l) <- examples) {
        require((all(r >>> 6) & (1L << r)) == 0, s"row $r repeats in the examples")
        all(r >>> 6) |= 1L << r
        bits(id(l))(r >>> 6) |= 1L << r
      }
      (bits, all)
    }

    val root: Grown = new Grown(all)

    /** A node's split on feature `feat` into its true and false children. */
    private final case class Split(feat: Int, t: Grown, f: Grown)

    /** The node whose examples are the set bits of `mask`, with its split
      * found on first use.
      */
    final class Grown(mask: Array[Long]) {
      private val size   = popcount(mask)
      private val counts = {
        val c = new Array[Int](labelBits.length)
        var l = 0
        while (l < c.length) { c(l) = popcountAnd(mask, labelBits(l)); l += 1 }
        c
      }
      private val major = { // the first maximum: ties by label
        var m = 0
        var l = 1
        while (l < counts.length) { if (counts(l) > counts(m)) m = l; l += 1 }
        m
      }

      private lazy val split: Option[Split] =
        if (counts(major) == size || featBits.isEmpty) None
        else {
          // the first minimum: lowest feature index among ties
          var j = 0
          var best = error(featBits(0))
          var k = 1
          while (k < featBits.length) {
            val e = error(featBits(k))
            if (e < best) { best = e; j = k }
            k += 1
          }
          val t     = and(mask, featBits(j))
          val tSize = popcount(t)
          // a split with an empty side leaves the node a leaf; zero-gain splits
          // are kept, since deeper levels may still separate xor-like labels
          if (tSize == 0 || tSize == size) None
          else Some(Split(j, new Grown(t), new Grown(andNot(mask, featBits(j)))))
        }

      /** Examples the majority children of a split on `feat` misclassify. */
      private def error(feat: Array[Long]): Int = {
        var tSize, tMax, fMax = 0 // the labels partition the examples: tSize sums the tl
        var l = 0
        while (l < labelBits.length) {
          if (counts(l) > 0) {
            val lb = labelBits(l)
            var tl, w = 0
            while (w < words) { tl += java.lang.Long.bitCount(mask(w) & feat(w) & lb(w)); w += 1 }
            tSize += tl
            tMax = math.max(tMax, tl)
            fMax = math.max(fMax, counts(l) - tl)
          }
          l += 1
        }
        (tSize - tMax) + (size - tSize - fMax)
      }

      /** Examples the tree truncated at `depth` below this node predicts right. */
      def hits(depth: Int): Int = (if (depth == 0) None else split) match {
        case Some(Split(_, t, f)) => t.hits(depth - 1) + f.hits(depth - 1)
        case None                 => counts(major)
      }

      def tree(depth: Int): DTree = (if (depth == 0) None else split) match {
        case Some(Split(j, t, f)) => Node(j, t.tree(depth - 1), f.tree(depth - 1))
        case None                 => Leaf(labels(major))
      }
    }
  }
}
