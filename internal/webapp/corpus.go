package webapp

import "slices"

// The text corpus for the synthetic site: a Zipf-weighted vocabulary for
// filler comment text, author names, title words, and the query workload.
// The first queries are the ones Table 7.4 of the thesis reports (taken
// from the era's most popular YouTube queries); the rest of the
// 100-query set is generated deterministically from topic words, mirroring
// the thesis's "100 queries in total".

// vocabulary is the filler-word list; sampling is Zipf-like (rank-
// weighted), so low-rank words dominate comment text, as in real text.
var vocabulary = []string{
	"the", "i", "this", "is", "so", "love", "video", "it", "you", "that",
	"was", "great", "my", "and", "a", "to", "of", "in", "for", "on",
	"really", "like", "just", "not", "but", "what", "when", "who", "how", "why",
	"awesome", "amazing", "cool", "nice", "best", "ever", "seen", "watch", "again", "music",
	"song", "band", "guitar", "drums", "voice", "singing", "concert", "live", "album", "track",
	"first", "second", "time", "here", "there", "people", "everyone", "nobody", "anyone", "friend",
	"lol", "haha", "omg", "wtf", "thanks", "please", "check", "channel", "subscribe", "comment",
	"good", "bad", "better", "worse", "worst", "favorite", "new", "old", "classic", "modern",
	"beautiful", "perfect", "terrible", "boring", "epic", "legend", "genius", "talent", "skill", "style",
	"remember", "forget", "never", "always", "sometimes", "often", "today", "yesterday", "tomorrow", "night",
	"day", "year", "week", "month", "hour", "minute", "moment", "forever", "history", "future",
	"school", "work", "home", "car", "city", "country", "world", "earth", "space", "star",
	"movie", "film", "scene", "actor", "director", "camera", "light", "sound", "effect", "edit",
	"game", "play", "player", "team", "goal", "score", "win", "lose", "match", "league",
	"cat", "dog", "baby", "kid", "girl", "boy", "man", "woman", "mother", "father",
	"laugh", "cry", "smile", "wave", "jump", "run", "walk", "sit", "stand", "fall",
	"red", "blue", "green", "black", "white", "gold", "silver", "dark", "bright", "color",
	"one", "two", "three", "four", "five", "ten", "hundred", "thousand", "million", "billion",
	"part", "full", "version", "original", "cover", "remix", "intro", "outro", "chorus", "verse",
	"true", "false", "real", "fake", "right", "wrong", "same", "different", "whole", "half",
	"feel", "think", "know", "believe", "hope", "wish", "want", "need", "have", "get",
	"make", "made", "making", "done", "doing", "start", "stop", "begin", "end", "finish",
	"top", "bottom", "left", "side", "front", "back", "middle", "center", "edge", "corner",
	"big", "small", "huge", "tiny", "long", "short", "tall", "wide", "deep", "high",
	"hard", "soft", "easy", "tough", "simple", "complex", "fast", "slow", "quick", "late",
}

// authorNames provides comment author handles.
var authorNames = []string{
	"musicfan88", "xXshadowXx", "guitarhero", "sk8terboi", "melodymaker",
	"rockstar2008", "quietlistener", "bassline", "drumloop", "vinylhead",
	"concertgoer", "radioghost", "stereotype", "ampedup", "riffraff",
	"trebleclef", "echochamber", "feedbackloop", "vibecheck", "headbanger",
	"popprincess", "indiekid", "metalhead", "jazzhands", "bluesbrother",
	"synthwave", "chiptune", "lofibeats", "acousticsoul", "discoball",
	"turntable", "mixtape", "playlist", "shuffleplay", "repeatone",
	"maxvolume", "mutebutton", "equalizer", "subwoofer", "tweeter",
	"frontrow", "backstage", "greenroom", "soundcheck", "encore",
	"openingact", "headliner", "roadie", "groupie", "promoter",
	"firstcomment", "lurker2007", "oldaccount", "newuser123", "verifiedfan",
	"skeptic42", "believer7", "critic101", "reviewer9", "casualviewer",
}

// titleWords builds video titles (2–5 words).
var titleWords = []string{
	"official", "video", "live", "acoustic", "session", "tour", "studio",
	"interview", "behind", "scenes", "exclusive", "premiere", "trailer",
	"episode", "part", "one", "two", "three", "final", "extended",
	"morcheeba", "enjoy", "ride", "mysterious", "journey", "midnight",
	"summer", "winter", "ocean", "mountain", "river", "skyline", "horizon",
	"echo", "whisper", "thunder", "lightning", "rainbow", "shadow", "light",
	"dreams", "memories", "stories", "secrets", "wonders", "legends",
}

// paperQueries are the queries of Table 7.4, in the thesis's order.
var paperQueries = []string{
	"wow",
	"dance",
	"funny",
	"our song",
	"sexy can i",
	"american idol",
	"kiss",
	"fight",
	"no air",
	"chris brown",
	"low",
}

// queryTopics generate the remainder of the 100-query workload as
// deterministic one- and two-word combinations.
var queryTopics = []string{
	"music", "love", "live", "guitar", "cover", "remix", "concert",
	"best", "epic", "classic", "dance", "beat", "song", "voice",
	"drum", "bass", "piano", "acoustic", "studio", "tour",
	"laugh", "cry", "smile", "baby", "cat", "dog", "game", "goal",
	"win", "team", "movie", "scene", "star", "world", "night", "day",
	"dream", "memory", "story", "secret", "legend", "wonder", "fire",
	"water", "gold",
}

// queries is the 100-query workload, built once: the site generator
// plants its phrases into every generated text.
var queries = buildQueries()

// Queries returns a copy of the full 100-query workload: the 11 paper
// queries followed by generated ones.
func Queries() []string { return slices.Clone(queries) }

// buildQueries lists the paper queries, then single topics up to 70
// entries, then two-topic pairs up to 100.
func buildQueries() []string {
	out := make([]string, 0, 100)
	seen := make(map[string]bool, 100)
	add := func(q string) {
		if !seen[q] && len(out) < 100 {
			seen[q] = true
			out = append(out, q)
		}
	}
	for _, q := range paperQueries {
		add(q)
	}
	// Single-topic queries.
	for _, t := range queryTopics {
		if len(out) >= 70 {
			break
		}
		add(t)
	}
	// Two-word queries pairing topics at increasing offsets until the
	// workload reaches 100 entries.
	for off := 1; len(out) < 100 && off < len(queryTopics); off++ {
		for i := 0; len(out) < 100 && i+off < len(queryTopics); i++ {
			add(queryTopics[i] + " " + queryTopics[i+off])
		}
	}
	return out
}

// plantable are the phrases planted into comment text so queries have
// controlled hit rates: paper queries get the highest plant weight (they
// are the "most popular" ones), generated queries a tail weight. The
// generators only read the shared slice.
func plantable() []string { return queries }
